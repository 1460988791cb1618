#include "host/pool.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace adam2::host {

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

void WorkerPool::run(const std::function<void(std::size_t)>& task) {
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

void WorkerPool::run_indexed(std::size_t count, const Task& task) {
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

void WorkerPool::run_gated(std::span<const std::uint32_t> unit_slots,
                           std::size_t slot_count, const Task& task) {
  const std::size_t unit_count = unit_slots.size() / 2;
  if (threads_.empty()) {
    // Ascending unit order trivially respects every slot's order.
    for (std::size_t u = 0; u < unit_count; ++u) task(u, 0);
    return;
  }
  // Participant k of unit u; a slot named twice by one unit counts once.
  const auto slot = [&](std::size_t u, std::size_t k) {
    const std::uint32_t s = unit_slots[2 * u + k];
    return k == 1 && s == unit_slots[2 * u] ? kNoSlot : s;
  };

  // Unit-ordered list per slot (CSR layout): count, prefix-sum, then fill in
  // ascending u, which keeps every list sorted. The cursors serve as fill
  // positions first.
  slot_offsets_.assign(slot_count + 1, 0);
  for (std::size_t u = 0; u < unit_count; ++u) {
    for (std::size_t k = 0; k < 2; ++k) {
      if (const std::uint32_t s = slot(u, k); s != kNoSlot) {
        ++slot_offsets_[s + 1];
      }
    }
  }
  for (std::size_t s = 0; s < slot_count; ++s) {
    slot_offsets_[s + 1] += slot_offsets_[s];
  }
  slot_units_.resize(slot_offsets_[slot_count]);
  slot_cursor_.assign(slot_offsets_.begin(), slot_offsets_.end() - 1);
  for (std::size_t u = 0; u < unit_count; ++u) {
    for (std::size_t k = 0; k < 2; ++k) {
      if (const std::uint32_t s = slot(u, k); s != kNoSlot) {
        slot_units_[slot_cursor_[s]++] = static_cast<std::uint32_t>(u);
      }
    }
  }
  slot_cursor_.assign(slot_count, 0);

  // A unit is ready when it heads the list of every participant. Its gate
  // starts at its participant count and loses one per list it heads.
  if (pending_capacity_ < unit_count) {
    pending_ = std::make_unique<std::atomic<std::uint32_t>[]>(unit_count);
    pending_capacity_ = unit_count;
  }
  ready_.clear();
  for (std::size_t u = 0; u < unit_count; ++u) {
    const std::uint32_t participants =
        (slot(u, 0) != kNoSlot ? 1U : 0U) + (slot(u, 1) != kNoSlot ? 1U : 0U);
    pending_[u].store(participants, std::memory_order_relaxed);
    if (participants == 0) ready_.push_back(static_cast<std::uint32_t>(u));
  }
  for (std::size_t s = 0; s < slot_count; ++s) {
    if (slot_offsets_[s] == slot_offsets_[s + 1]) continue;
    const std::uint32_t head = slot_units_[slot_offsets_[s]];
    if (pending_[head].fetch_sub(1, std::memory_order_relaxed) == 1) {
      ready_.push_back(head);
    }
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t completed = 0;
  bool failed = false;  // A unit threw: its successors will never be ready.
  run([&](std::size_t worker) {
    for (;;) {
      std::uint32_t u = 0;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] {
          return completed == unit_count || failed || !ready_.empty();
        });
        if (completed == unit_count || failed) return;
        u = ready_.back();
        ready_.pop_back();
      }
      try {
        task(u, worker);
      } catch (...) {
        // Release every waiter; run() hands the exception to the caller.
        std::lock_guard lock(mutex);
        failed = true;
        cv.notify_all();
        throw;
      }

      // Advance both participants' lists; a successor that now heads all its
      // lists becomes ready. The acq_rel RMW chain on its gate (plus the
      // queue mutex) publishes every predecessor's writes to whichever
      // worker picks it up.
      std::array<std::uint32_t, 2> fresh{};
      std::size_t fresh_count = 0;
      for (std::size_t k = 0; k < 2; ++k) {
        const std::uint32_t s = slot(u, k);
        if (s == kNoSlot) continue;
        const std::uint32_t next = slot_offsets_[s] + ++slot_cursor_[s];
        if (next < slot_offsets_[s + 1] &&
            pending_[slot_units_[next]].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          fresh[fresh_count++] = slot_units_[next];
        }
      }
      std::lock_guard lock(mutex);
      ++completed;
      ready_.insert(ready_.end(), fresh.begin(), fresh.begin() + fresh_count);
      cv.notify_all();
    }
  });
}

void WorkerPool::worker_main(std::size_t index) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* task = nullptr;
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
      if (error && !error_) error_ = error;
      if (--running_ == 0) done_.notify_all();
    }
  }
}

}  // namespace adam2::host
