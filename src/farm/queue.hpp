// Bounded MPMC queue — the farm's backpressure primitive.
//
// Any number of producers push jobs and any number of consumers pop them;
// capacity is fixed at construction. push() blocks when full (the bounded
// buffer *is* the backpressure: a submitter stalls instead of growing an
// unbounded backlog), try_push() refuses instead of blocking so callers can
// shed load, and close() wakes everything up for shutdown: pending items
// still drain, then pop() returns nullopt.
//
// This deliberately mirrors the paper's Data_In register: a one-deep
// hardware queue whose "full" condition (data_pending) is what throttles
// the bus master. The farm queue is the same contract with depth > 1.
//
// Mutex + condvars, not lock-free: the consumer side of every pop runs a
// 50-cycle-per-block HDL simulation, so queue overhead is noise; what the
// hot path must avoid is sharing *cores* across threads, and the farm
// guarantees that structurally (one simulator per worker), not here.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace aesip::farm {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocking push; returns false only if the queue was closed.
  bool push(T item) {
    std::unique_lock lk(mu_);
    not_full_.wait(lk, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) high_water_ = items_.size();
    lk.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Priority push for rare control items (engine hot-swap, fault
  /// injection): the item goes to the FRONT of the queue and ignores the
  /// capacity bound, so the control plane can never deadlock against its
  /// own backpressure — a full queue means the worker is busy, which is
  /// exactly when a swap or quarantine order must still get through.
  /// Returns false only if the queue was closed.
  bool push_front(T item) {
    {
      std::lock_guard lk(mu_);
      if (closed_) return false;
      items_.push_front(std::move(item));
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed (the load-shedding path).
  bool try_push(T item) {
    {
      std::lock_guard lk(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; nullopt once the queue is closed *and* drained.
  std::optional<T> pop() {
    std::unique_lock lk(mu_);
    not_empty_.wait(lk, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Blocking pop of everything queued in one wake-up, appended to `out`
  /// (a caller-owned buffer, reused across calls) — the drain primitive: a
  /// worker that fell behind takes its whole backlog, which the capacity
  /// bounds, and can pack it into a lane-packed engine's passes.  Waits
  /// like pop(); returns false only once the queue is closed and drained.
  bool pop_all(std::vector<T>& out) {
    std::unique_lock lk(mu_);
    not_empty_.wait(lk, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    for (auto& item : items_) out.push_back(std::move(item));
    items_.clear();
    lk.unlock();
    not_full_.notify_all();  // may have freed several slots
    return true;
  }

  /// Stop accepting new items; consumers drain what is queued, then see
  /// nullopt. Idempotent.
  void close() {
    {
      std::lock_guard lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    return items_.size();
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Deepest the queue has ever been — the headroom metric the stats report.
  std::size_t high_water() const {
    std::lock_guard lk(mu_);
    return high_water_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace aesip::farm
