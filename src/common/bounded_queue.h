#ifndef TRAJLDP_COMMON_BOUNDED_QUEUE_H_
#define TRAJLDP_COMMON_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace trajldp {

/// Outcome of a non-blocking push (BoundedQueue::TryPush). A producer
/// that must never block — e.g. a reactor loop serving many connections
/// — needs to distinguish "full, try again later" from "the queue will
/// never accept another item".
enum class QueuePushResult {
  kOk,      ///< item enqueued
  kFull,    ///< queue at capacity; item left with the caller
  kClosed,  ///< queue closed; no item will ever be accepted again
};

/// \brief A bounded, blocking FIFO queue for producer/consumer pipelines.
///
/// Built for the streaming-ingest MPSC shape — many ingest threads
/// pushing report batches, collector workers draining them — but safe
/// for any number of producers and consumers. The capacity bound is what
/// gives the ingest pipeline its bounded memory: when consumers fall
/// behind, Push blocks the producers instead of buffering without limit
/// (backpressure, not OOM).
///
/// Shutdown protocol: the producer side calls Close() once when no more
/// items are coming. Pop() then drains the remaining items and returns
/// std::nullopt to each consumer afterwards; Push() after Close() is
/// rejected. Close() is idempotent.
template <typename T>
class BoundedQueue {
 public:
  /// `capacity` must be ≥ 1 (0 is promoted to 1).
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  size_t capacity() const { return capacity_; }

  /// Blocks until there is room (or the queue is closed). Returns false —
  /// and drops `item` — iff the queue was closed first.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    NoteDepthLocked();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: never waits for room. On kOk `item` is moved
  /// into the queue; on kFull and kClosed it is left intact with the
  /// caller, so a flow-control loop can retry (or abandon) the same item
  /// without copies.
  QueuePushResult TryPush(T& item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // The zero-length wait still releases the lock once, so a consumer
      // already queued on it can pop first. Without it the ingest reactor
      // bounced many more frames onto its retry timer: bench_net_ingest's
      // 10k-connection churn leg ran in 1.9 s instead of 0.6 s (4 cores).
      if (!not_full_.wait_for(lock, std::chrono::seconds(0), [this] {
            return closed_ || items_.size() < capacity_;
          })) {
        return QueuePushResult::kFull;
      }
      if (closed_) return QueuePushResult::kClosed;
      items_.push_back(std::move(item));
      NoteDepthLocked();
    }
    not_empty_.notify_one();
    return QueuePushResult::kOk;
  }

  /// Blocks until an item is available or the queue is closed AND empty;
  /// std::nullopt means "closed and fully drained".
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Signals end of input. Blocked producers return false, consumers
  /// drain and then see std::nullopt. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// Deepest the queue has ever been — the backpressure observability
  /// counter. A high-water mark pinned at capacity() means producers
  /// were blocking on consumers (sustained backpressure); one well below
  /// it means the consumers kept up.
  size_t high_water_mark() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  void NoteDepthLocked() {
    if (items_.size() > high_water_) high_water_ = items_.size();
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace trajldp

#endif  // TRAJLDP_COMMON_BOUNDED_QUEUE_H_
