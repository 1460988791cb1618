#include "host/pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace adam2::host {
namespace {

constexpr std::uint32_t kNoClaimant = 0xffffffffU;

/// Decided units the walk accumulates before it publishes them: one release
/// store per batch keeps the appliers' polling off the walk's path.
constexpr std::size_t kPublishBatch = 8;

/// Thrown by a claim once an apply has failed, to end the walk quietly: the
/// apply's own exception is the one the caller gets.
struct WalkAborted {};

/// One step of a wait: a spin for the first 64 steps, then a yield.
void back_off(unsigned& steps) {
  if (steps++ < 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  } else {
    std::this_thread::yield();
  }
}

/// Spins briefly, then yields, until `ready()` holds.
template <class Ready>
void wait_until(const Ready& ready) {
  for (unsigned steps = 0; !ready();) back_off(steps);
}

}  // namespace

WorkerPool::WorkerPool(std::size_t workers) {
  if (workers <= 1) return;  // Inline: the calling thread is the worker.
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run(CallRef<void(std::size_t)> task) {
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    task_ = &task;
    running_ = threads_.size();
    ++generation_;
    start_.notify_all();
    done_.wait(lock, [this] { return running_ == 0; });
    task_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void WorkerPool::run_indexed(std::size_t count, Task task) {
  if (threads_.empty()) {
    for (std::size_t i = 0; i < count; ++i) task(i, 0);
    return;
  }
  // Chunks of ~1/8 of a worker's share: few enough claims to keep the
  // counter cold, small enough to balance uneven per-index costs.
  const std::size_t chunk = std::max<std::size_t>(1, count / (size() * 8));
  std::atomic<std::size_t> next{0};
  run([&](std::size_t worker) {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(count, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) task(i, worker);
    }
  });
}

/// One run_ordered call's shared progress. The walk publishes `decided` in
/// batches, and always before it waits, so no applier waits on a unit the
/// walk has decided.
struct WorkerPool::Claims::Call {
  Call(std::size_t unit_count, Task apply_step)
      : units(unit_count), apply(apply_step) {}

  const std::size_t units;
  const Task apply;
  alignas(64) std::atomic<std::size_t> decided{0};  // Units [0, n) decided.
  alignas(64) std::atomic<std::size_t> next{0};     // Next unit handed out.
  alignas(64) std::atomic<bool> walk_over{false};   // The walk ended.
  std::atomic<bool> failed{false};                  // An apply threw.
};

void WorkerPool::Claims::claim(std::uint32_t slot) {
  if (slot >= slot_count_) {
    throw std::out_of_range("worker pool: claimed slot out of range");
  }
  if (pool_ == nullptr) return;  // Inline: every earlier unit is applied.
  const std::uint32_t previous = std::exchange(pool_->claimant_[slot], unit_);
  if (previous == kNoClaimant || previous == unit_) return;
  pool_->await_applied(*call_, previous, unit_);
}

void WorkerPool::await_applied(Claims::Call& call, std::size_t unit,
                               std::size_t deciding) {
  const std::atomic<std::uint8_t>& applied = applied_[unit];
  if (applied.load(std::memory_order_acquire) != 0) return;
  // The unit may sit in an unpublished batch: publish first, or no applier
  // would take it up. Then apply units while waiting.
  call.decided.store(deciding, std::memory_order_release);
  for (unsigned steps = 0; applied.load(std::memory_order_acquire) == 0;) {
    if (call.failed.load(std::memory_order_relaxed)) throw WalkAborted{};
    if (!apply_next(call, 0)) back_off(steps);
  }
}

bool WorkerPool::apply_next(Claims::Call& call, std::size_t worker) {
  const std::size_t decided = call.decided.load(std::memory_order_acquire);
  std::size_t u = call.next.load(std::memory_order_relaxed);
  while (u < decided) {
    if (call.next.compare_exchange_weak(u, u + 1,
                                        std::memory_order_relaxed)) {
      apply_unit(call, u, worker);
      return true;
    }
  }
  return false;
}

void WorkerPool::apply_unit(Claims::Call& call, std::size_t u,
                            std::size_t worker) {
  if (applied_[u].load(std::memory_order_relaxed) != 0) return;  // No apply.
  try {
    call.apply(u, worker);
  } catch (...) {
    call.failed.store(true, std::memory_order_relaxed);
    throw;
  }
  applied_[u].store(1, std::memory_order_release);
}

void WorkerPool::run_ordered(std::size_t units, std::size_t slot_count,
                             Decide decide, Task apply, Ahead ahead) {
  if (threads_.empty()) {
    Claims claims(nullptr, nullptr, slot_count);
    for (std::size_t u = 0; u < std::min(kLookAhead, units); ++u) ahead(u);
    for (std::size_t u = 0; u < units; ++u) {
      if (u + kLookAhead < units) ahead(u + kLookAhead);
      if (decide(u, claims)) apply(u, 0);
    }
    return;
  }
  if (units >= kNoClaimant) {
    throw std::length_error("worker pool: too many ordered units");
  }
  claimant_.assign(slot_count, kNoClaimant);
  if (applied_capacity_ < units) {
    applied_ = std::make_unique<std::atomic<std::uint8_t>[]>(units);
    applied_capacity_ = units;
  }
  for (std::size_t u = 0; u < units; ++u) {
    applied_[u].store(0, std::memory_order_relaxed);
  }

  // Appliers take runs of consecutive units: few claims on the counter, and
  // short enough that a claim seldom waits on a unit queued behind others.
  const std::size_t chunk =
      std::clamp<std::size_t>(units / (size() * 64), 1, 8);
  Claims::Call call(units, apply);
  run([&](std::size_t worker) {
    if (worker == 0) {
      // The walk, then this worker applies like the others.
      Claims claims(this, &call, slot_count);
      std::size_t u = 0;
      try {
        for (; u < units && !call.failed.load(std::memory_order_relaxed);
             ++u) {
          // The decision ring's entry for u is free once u - kMaxPending
          // has been applied.
          if (u >= kMaxPending) await_applied(call, u - kMaxPending, u);
          claims.unit_ = static_cast<std::uint32_t>(u);
          if (!decide(u, claims)) {
            applied_[u].store(1, std::memory_order_relaxed);
          }
          if ((u + 1) % kPublishBatch == 0 || u + 1 == units) {
            call.decided.store(u + 1, std::memory_order_release);
          }
        }
      } catch (const WalkAborted&) {
      } catch (...) {
        // The units decided before the throw are still applied; then the
        // call fails.
        call.decided.store(u, std::memory_order_release);
        call.walk_over.store(true, std::memory_order_release);
        throw;
      }
      call.walk_over.store(true, std::memory_order_release);
    }

    std::size_t decided = 0;  // This worker's last view of call.decided.
    for (;;) {
      const std::size_t begin =
          call.next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= units) return;
      const std::size_t end = std::min(units, begin + chunk);
      for (std::size_t u = begin; u < end; ++u) {
        if (u >= decided) {
          wait_until([&] {
            decided = call.decided.load(std::memory_order_acquire);
            return u < decided ||
                   call.walk_over.load(std::memory_order_acquire) ||
                   call.failed.load(std::memory_order_relaxed);
          });
          // The walk's last publication precedes walk_over: read it again.
          decided = call.decided.load(std::memory_order_acquire);
          if (u >= decided) return;  // The walk ended before this unit.
        }
        if (call.failed.load(std::memory_order_relaxed)) return;
        apply_unit(call, u, worker);
      }
    }
  });
}

void WorkerPool::worker_main(std::size_t index) {
  std::uint64_t seen = 0;
  while (true) {
    const CallRef<void(std::size_t)>* task = nullptr;
    {
      std::unique_lock lock(mutex_);
      start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = task_;
    }
    std::exception_ptr error;
    try {
      (*task)(index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !error_) error_ = std::move(error);
      // Drop this worker's reference before the caller can see the run end:
      // the caller may free the exception as soon as it has handled it.
      error = nullptr;
      if (--running_ == 0) done_.notify_all();
    }
  }
}

}  // namespace adam2::host
