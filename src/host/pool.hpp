// A persistent fork-join worker pool: the only home of the cycle engine's
// and the sharded evaluation's concurrency, so code above host/ needs no
// atomics, mutexes or condition variables of its own.
//
// Threads are spawned once and reused across rounds (a round has several
// short parallel phases; re-spawning threads per phase would dominate the
// runtime at small N). A pool of one worker spawns no thread at all: every
// call then runs its tasks inline on the calling thread, in index order.
//
// Two calls:
//  * run_indexed — independent tasks, claimed in chunks;
//  * run_ordered — units that must give the result of running them in plan
//    order. One walk decides the units in order on one worker; each
//    decision claims the participant slots the unit touches, and the other
//    workers apply the decided units, taking runs of them in order. A
//    claim waits until the slot's previous claimant has been applied (the
//    walk applies units itself meanwhile), so every participant sees its
//    units decided and applied in plan order, whatever the interleaving.
//    Nothing per unit takes a mutex or a condition variable: waits spin
//    briefly, then yield. A caller may pass a read-only look-ahead step,
//    `ahead(u)`, that only loads ahead of time what unit u will touch
//    (prefetch hints, discarded reads): the one-worker pool calls it
//    kLookAhead units before decide(u), when every earlier decided unit
//    has been applied and nothing runs concurrently; a pool with threads
//    never calls it, since there it would read state that an apply on
//    another worker may be writing.
//
// A task that throws fails the whole call the same way at any worker count:
// the exception reaches the caller, and tasks not yet started may be
// skipped. With threads, the first exception is kept and rethrown once
// every worker has returned; no worker is left waiting on a unit that will
// never be decided or applied. The pool stays usable afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace adam2::host {

/// A non-owning reference to a callable, so that handing a lambda to the
/// pool allocates nothing (a std::function may). The callable must outlive
/// the call it is passed to.
template <class Signature>
class CallRef;

template <class R, class... Args>
class CallRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, CallRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  CallRef(F&& f)  // Implicit, so a lambda converts where a CallRef is taken.
      : object_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

class WorkerPool {
 public:
  /// `task(index, worker)`: `worker` in [0, size()) names the executing
  /// worker, so callers can give each worker its own accumulator.
  using Task = CallRef<void(std::size_t, std::size_t)>;

  /// The walk's hold on participant slots during run_ordered.
  class Claims {
   public:
    /// Call before the deciding unit reads or writes the state of
    /// participant `slot` (< the call's slot count; std::out_of_range
    /// otherwise). Waits until the slot's previous claimant has been
    /// applied, then records the deciding unit as its claimant. Claiming a
    /// slot twice in one unit is harmless.
    void claim(std::uint32_t slot);

   private:
    friend class WorkerPool;
    struct Call;
    Claims(WorkerPool* pool, Call* call, std::size_t slot_count)
        : pool_(pool), call_(call), slot_count_(slot_count) {}

    WorkerPool* pool_;  // Null when the units run inline.
    Call* call_;
    std::size_t slot_count_;
    std::uint32_t unit_ = 0;  // The unit being decided.
  };

  /// `decide(unit, claims)` returns whether the unit has an apply step.
  using Decide = CallRef<bool(std::size_t, Claims&)>;
  /// `ahead(unit)` reads state and writes none of it: it only loads what
  /// the units about to be decided will touch.
  using Ahead = CallRef<void(std::size_t)>;

  /// Units decided but not yet applied at any one time in run_ordered, at
  /// most: the walk waits before it runs further ahead.
  static constexpr std::size_t kMaxPending = 4096;

  /// How many units before decide(u) the one-worker run_ordered calls
  /// ahead(u).
  static constexpr std::size_t kLookAhead = 16;

  /// Spawns `workers` threads; 0 and 1 both mean one inline worker.
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `task(i, worker)` once for every i in [0, count), claimed in
  /// chunks by the workers; returns when all indices are done.
  void run_indexed(std::size_t count, Task task);

  /// Runs the units [0, units) as if each ran `decide(u)`, then
  /// `apply(u, worker)` when decide returned true, in ascending u. One walk
  /// calls `decide` in unit order, so only decide may draw from a stream
  /// shared by all units; before it touches a participant's state it
  /// claims that participant's slot (< `slot_count`). The workers apply
  /// the decided units, the walk's own worker while a claim waits and once
  /// the walk is done. An apply touches only its unit's claimed
  /// participants (plus per-worker state), and the claims make each
  /// participant see its units decided and applied in unit order, so the
  /// result equals the in-order run whatever the interleaving — the sharded
  /// engine's bit-identity rests on this. With one worker, decide(u) and
  /// apply(u, 0) run back to back inline.
  ///
  /// At most pending_limit() units are decided and not yet applied, so a
  /// caller can pass decisions to the apply step in a ring of that many
  /// entries, unit u in entry u % pending_limit().
  ///
  /// With one worker, `ahead(u)` runs once per unit, in unit order, just
  /// before decide(u - kLookAhead) (the first kLookAhead units: before
  /// decide(0)). Every unit before u - kLookAhead has then been decided and
  /// applied, and nothing runs concurrently, so ahead may read any state;
  /// it must write none. With threads it is never called: the thread-count
  /// branch stays here, not in the caller.
  void run_ordered(std::size_t units, std::size_t slot_count, Decide decide,
                   Task apply, Ahead ahead);
  void run_ordered(std::size_t units, std::size_t slot_count, Decide decide,
                   Task apply) {
    run_ordered(units, slot_count, decide, apply, [](std::size_t) {});
  }

  [[nodiscard]] std::size_t size() const {
    return threads_.empty() ? 1 : threads_.size();
  }

  /// 1 when the units run inline, else kMaxPending.
  [[nodiscard]] std::size_t pending_limit() const {
    return threads_.empty() ? 1 : kMaxPending;
  }

 private:
  /// Runs `task(worker)` on every worker thread; returns when all are done,
  /// then rethrows the first exception a worker's task threw. Not
  /// reentrant; the calling thread does not execute the task.
  void run(CallRef<void(std::size_t)> task);
  void worker_main(std::size_t index);

  /// Applies the next unit not yet handed out, if the walk has published
  /// it; returns whether it did.
  bool apply_next(Claims::Call& call, std::size_t worker);
  /// Applies unit `u` unless it is already done, and marks it done.
  void apply_unit(Claims::Call& call, std::size_t u, std::size_t worker);
  /// The walk, deciding unit `deciding`: returns once unit `unit` has been
  /// applied, applying units itself meanwhile. Throws WalkAborted once an
  /// apply failed.
  void await_applied(Claims::Call& call, std::size_t unit,
                     std::size_t deciding);

  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  const CallRef<void(std::size_t)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t running_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;  // First exception of the current run.

  // run_ordered scratch, reused across calls. `claimant_` is the walk's
  // alone; `applied_` is set by whoever finished a unit (the walk for a unit
  // without an apply step) and read by the walk's claims.
  std::vector<std::uint32_t> claimant_;  // Per slot: last claimant, or none.
  std::unique_ptr<std::atomic<std::uint8_t>[]> applied_;  // Per unit.
  std::size_t applied_capacity_ = 0;

  std::vector<std::thread> threads_;  // Last: workers use every member above.
};

}  // namespace adam2::host
