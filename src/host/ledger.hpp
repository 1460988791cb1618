// Thread-safe traffic ledger for the wall-clock runtime (runtime::Directory),
// where many peer threads add their counters concurrently.
#pragma once

#include <cstddef>
#include <mutex>

#include "host/traffic.hpp"
#include "host/types.hpp"

namespace adam2::host {

class SharedTrafficLedger {
 public:
  /// Counts one message of `bytes` bytes as sent and received on `channel`
  /// (the global view of a point-to-point transfer).
  void record_message(Channel channel, std::size_t bytes) {
    std::lock_guard lock(mutex_);
    totals_.record_message(channel, bytes);
  }

  /// Merges a batch of per-node counters (e.g. on node shutdown).
  void merge(const TrafficStats& stats) {
    std::lock_guard lock(mutex_);
    totals_ += stats;
  }

  [[nodiscard]] TrafficStats snapshot() const {
    std::lock_guard lock(mutex_);
    return totals_;
  }

 private:
  mutable std::mutex mutex_;
  TrafficStats totals_;
};

}  // namespace adam2::host
