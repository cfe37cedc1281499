/**
 * @file
 * The daemon's admission queue: a fixed-capacity MPMC queue with
 * non-blocking producers. A full queue rejects the push immediately —
 * the daemon turns that into an explicit 429-style "rejected" response
 * so clients see backpressure as a structured signal they can retry on,
 * instead of an unbounded backlog silently eating the daemon's memory.
 */

#ifndef EIP_SERVE_QUEUE_HH
#define EIP_SERVE_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/panic.hh"

namespace eip::serve {

template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity) : capacity_(capacity)
    {
        EIP_ASSERT(capacity > 0, "queue capacity must be positive");
    }

    /** Admit @p value unless the queue is full (or closed). Never
     *  blocks: a false return is the backpressure signal, and leaves
     *  @p value with the caller, unmoved. */
    bool
    tryPush(T &&value)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(value));
            if (items_.size() > highWater_)
                highWater_ = items_.size();
        }
        available_.notify_one();
        return true;
    }

    /** Next item, blocking while the queue is open and empty. Empty
     *  optional only after close() once the backlog has drained, so
     *  shutdown completes queued work instead of dropping it. */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        available_.wait(lock,
                        [this] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return std::nullopt;
        T value = std::move(items_.front());
        items_.pop_front();
        return value;
    }

    /** Stop admitting; wake every blocked consumer. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        available_.notify_all();
    }

    size_t
    depth() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    /** Deepest backlog ever observed. */
    uint64_t
    highWater() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return highWater_;
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable available_;
    std::deque<T> items_;
    size_t capacity_;
    bool closed_ = false;
    uint64_t highWater_ = 0;
};

} // namespace eip::serve

#endif // EIP_SERVE_QUEUE_HH
