// A persistent fork-join worker pool: the only home of the cycle engine's
// and the sharded evaluation's concurrency, so code above host/ needs no
// atomics, mutexes or condition variables of its own.
//
// Threads are spawned once and reused across rounds (a round has several
// short parallel phases; re-spawning threads per phase would dominate the
// runtime at small N). A pool of one worker spawns no thread at all: every
// call then runs its tasks inline on the calling thread, in index order.
//
// A task that throws fails the whole call the same way at any worker count:
// the exception reaches the caller of run_indexed / run_gated, and tasks not
// yet started may be skipped. With threads, the first exception is kept and
// rethrown once every worker has returned; a gated run releases its waiters
// instead of leaving them blocked on a unit that will never be ready. The
// pool stays usable afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace adam2::host {

class WorkerPool {
 public:
  /// `task(index, worker)`: `worker` in [0, size()) names the executing
  /// worker, so callers can give each worker its own accumulator.
  using Task = std::function<void(std::size_t, std::size_t)>;

  /// Marks an unused participant slot in run_gated.
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  /// Spawns `workers` threads; 0 and 1 both mean one inline worker.
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `task(i, worker)` once for every i in [0, count), claimed in
  /// chunks by the workers; returns when all indices are done.
  void run_indexed(std::size_t count, const Task& task);

  /// Runs `task(u, worker)` once for every unit u in [0, units) under a
  /// dependency gate. Unit u touches the participant slots
  /// `unit_slots[2u]` and `unit_slots[2u + 1]` (each < `slot_count`, or
  /// kNoSlot). Units that share a slot run one after another in ascending
  /// unit order; units with disjoint slots may run concurrently. The result
  /// therefore equals running the units in order, whatever the interleaving
  /// — the sharded engine's bit-identity rests on this. The gate's
  /// release/acquire chain publishes each unit's writes to the next unit of
  /// the same slot.
  void run_gated(std::span<const std::uint32_t> unit_slots,
                 std::size_t slot_count, const Task& task);

  [[nodiscard]] std::size_t size() const {
    return threads_.empty() ? 1 : threads_.size();
  }

 private:
  /// Runs `task(worker)` on every worker thread; returns when all are done,
  /// then rethrows the first exception a worker's task threw. Not
  /// reentrant; the calling thread does not execute the task.
  void run(const std::function<void(std::size_t)>& task);
  void worker_main(std::size_t index);

  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t running_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;  // First exception of the current run.

  // run_gated scratch, reused across calls (indices are unit numbers).
  std::vector<std::uint32_t> slot_offsets_;  // Per-slot start in slot_units_.
  std::vector<std::uint32_t> slot_units_;    // Unit-ordered list per slot.
  std::vector<std::uint32_t> slot_cursor_;   // Per-slot progress.
  std::vector<std::uint32_t> ready_;         // Units free to run.
  std::unique_ptr<std::atomic<std::uint32_t>[]> pending_;  // Per-unit gate.
  std::size_t pending_capacity_ = 0;

  std::vector<std::thread> threads_;  // Last: workers use every member above.
};

}  // namespace adam2::host
