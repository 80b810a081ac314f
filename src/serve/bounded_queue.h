#ifndef HIRE_SERVE_BOUNDED_QUEUE_H_
#define HIRE_SERVE_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "utils/check.h"

namespace hire {
namespace serve {

/// Bounded MPMC FIFO. Producers are the event-loop thread (and in-process
/// SubmitAsync callers); consumers are the micro-batcher workers and the
/// server's reload thread. The bound is the server's backpressure
/// mechanism: when the queue is full, TryPush fails and the transport
/// replies 503 instead of letting latency grow without limit.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    HIRE_CHECK_GT(capacity, 0u);
  }

  /// Enqueues without blocking. Returns false when full or closed, in which
  /// case `item` is NOT moved from — the caller still owns it and can e.g.
  /// resolve the promise it carries.
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || queue_.size() >= capacity_) return false;
      queue_.push_back(std::move(item));
    }
    readable_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed. Returns
  /// nullopt only when closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    readable_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    return PopLocked();
  }

  /// Non-blocking pop; nullopt when empty.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    return PopLocked();
  }

  /// Wakes every blocked consumer; subsequent pushes fail. Items already
  /// queued can still be drained.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    readable_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  // Caller holds mutex_.
  std::optional<T> PopLocked() {
    if (queue_.empty()) return std::nullopt;
    std::optional<T> item(std::move(queue_.front()));
    queue_.pop_front();
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable readable_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace serve
}  // namespace hire

#endif  // HIRE_SERVE_BOUNDED_QUEUE_H_
