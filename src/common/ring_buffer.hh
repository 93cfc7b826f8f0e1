/**
 * @file
 * Fixed-capacity ring buffer for hot-path FIFOs.
 *
 * The NoC hot path (channel flit/credit pipes, NI source queues) used
 * std::deque, which allocates chunk-wise as it grows.
 * RingBuffer allocates its backing store once — sized from config
 * (VC depth, channel latency) — so the steady-state simulation loop
 * performs zero heap allocations. Capacity is rounded up to a power
 * of two for mask indexing.
 *
 * Two overflow policies, chosen at construction:
 *  - fixed (default): push_back on a full ring is a fatal error. Used
 *    where an exact occupancy bound exists (delay- and credit-bounded
 *    channel pipes) — overflow means a protocol bug.
 *  - growable: capacity doubles, retaining the storage afterwards (a
 *    pooled backing store). Used by the NI source queue, which is
 *    unbounded by design (the client regulates admission).
 */

#ifndef HNOC_COMMON_RING_BUFFER_HH
#define HNOC_COMMON_RING_BUFFER_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace hnoc
{

template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;

    explicit RingBuffer(std::size_t capacity, bool growable = false)
    {
        reset(capacity, growable);
    }

    /** (Re)size to hold at least @p capacity elements; drops contents. */
    void
    reset(std::size_t capacity, bool growable = false)
    {
        cap_ = roundUpPow2(capacity < 1 ? 1 : capacity);
        buf_ = std::make_unique<T[]>(cap_);
        head_ = 0;
        count_ = 0;
        growable_ = growable;
    }

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == cap_; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return cap_; }

    void
    push_back(const T &v)
    {
        if (count_ == cap_) {
            if (!growable_)
                fatal("ring buffer overflow (fixed capacity %zu)", cap_);
            grow();
        }
        buf_[(head_ + count_) & (cap_ - 1)] = v;
        ++count_;
    }

    T &
    front()
    {
        return buf_[head_];
    }

    const T &
    front() const
    {
        return buf_[head_];
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (cap_ - 1);
        --count_;
    }

    /** @return the @p i-th element from the front (0 = front). */
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & (cap_ - 1)];
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    void
    grow()
    {
        std::size_t new_cap = cap_ ? cap_ * 2 : 1;
        auto next = std::make_unique<T[]>(new_cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
        buf_ = std::move(next);
        cap_ = new_cap;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    bool growable_ = false;
};

} // namespace hnoc

#endif // HNOC_COMMON_RING_BUFFER_HH
