// Real-socket endpoint: runtime::Peer gossiping over loopback UDP.
//
// UdpEndpoint frames Envelopes onto UDP datagrams
// ([kind u8][from u64][token u64][payload]) on a 127.0.0.1 socket with an
// OS-assigned port, so the protocol stack is exercised against real
// datagram semantics (kernel buffering, drops under pressure). It resolves
// a node id to a port through the table connect() installs, standing in for
// whatever address service a deployment uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/transport.hpp"

namespace adam2::runtime {

class Directory;

/// A bound loopback UDP socket speaking the Envelope framing.
class UdpEndpoint final : public Endpoint {
 public:
  /// Binds 127.0.0.1 with an ephemeral port. Throws on failure.
  UdpEndpoint();
  ~UdpEndpoint() override;

  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Installs the address table: node i of `directory` listens on
  /// `ports[i]`. Throws std::invalid_argument unless there is exactly one
  /// port per node. Call before the owning peer starts.
  void connect(const Directory& directory, std::vector<std::uint16_t> ports);

  /// Sends an envelope to node `to`. False when `to` has no port or the
  /// socket refused the datagram.
  bool send(host::NodeId to, Envelope envelope) override;

  /// Receives one envelope, waiting at most until `deadline`. Returns
  /// nullopt on timeout or an undecodable datagram — the last case is
  /// counted in rejected_frames(), so truncation on the wire is
  /// distinguishable from plain silence.
  [[nodiscard]] std::optional<Envelope> receive(
      Clock::time_point deadline) override;

  [[nodiscard]] std::uint64_t rejected_frames() const override {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::uint16_t> ports_;
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace adam2::runtime
