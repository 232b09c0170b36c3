/**
 * @file
 * Flat FIFO ring queue with inline small storage.
 *
 * Replaces std::deque in simulator hot paths (DRAM controller queues)
 * where the common-case population is small and bounded: the first
 * INLINE items live inside the owning object, so a steady-state queue
 * performs no heap allocation at all, and iteration touches one
 * contiguous block in FIFO order.
 * Capacity grows geometrically (powers of two) when a queue backs up,
 * so behaviour is identical to the unbounded deque it replaces.
 */

#ifndef TENOC_COMMON_RING_HH
#define TENOC_COMMON_RING_HH

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "common/log.hh"

namespace tenoc
{

/**
 * Fixed-order FIFO over a circular buffer.  INLINE (a power of two)
 * items of inline storage; spills to a heap ring when exceeded.
 * Deliberately neither copyable nor movable: instances are embedded in
 * components with stable addresses (a DRAM channel's queues).
 */
template <typename T, unsigned INLINE = 4>
class RingQueue
{
    static_assert(INLINE >= 1 && (INLINE & (INLINE - 1)) == 0,
                  "inline capacity must be a power of two");

  public:
    RingQueue() = default;
    RingQueue(const RingQueue &) = delete;
    RingQueue &operator=(const RingQueue &) = delete;

    ~RingQueue()
    {
        clear();
        if (heap_)
            std::allocator<T>().deallocate(heap_, cap_);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        if (size_ == cap_)
            grow();
        ::new (static_cast<void *>(slot((head_ + size_) & (cap_ - 1))))
            T(std::forward<Args>(args)...);
        ++size_;
    }

    T &
    front()
    {
        tenoc_assert(size_ != 0, "front() on empty ring");
        return *slot(head_);
    }

    const T &
    front() const
    {
        tenoc_assert(size_ != 0, "front() on empty ring");
        return *slot(head_);
    }

    /** The i-th oldest item. */
    T &
    operator[](std::size_t i)
    {
        return *slot((head_ + i) & (cap_ - 1));
    }

    const T &
    operator[](std::size_t i) const
    {
        return *slot((head_ + i) & (cap_ - 1));
    }

    void
    pop_front()
    {
        tenoc_assert(size_ != 0, "pop_front() on empty ring");
        slot(head_)->~T();
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /** Removes the i-th oldest item, keeping the others in order; the
     *  shorter side of the ring shifts over the gap. */
    void
    erase(std::size_t i)
    {
        tenoc_assert(i < size_, "erase() past the end of the ring");
        if (i < size_ / 2) {
            for (std::size_t k = i; k > 0; --k)
                (*this)[k] = std::move((*this)[k - 1]);
            pop_front();
            return;
        }
        for (std::size_t k = i; k + 1 < size_; ++k)
            (*this)[k] = std::move((*this)[k + 1]);
        slot((head_ + size_ - 1) & (cap_ - 1))->~T();
        --size_;
    }

    void
    clear()
    {
        while (size_ != 0)
            pop_front();
        head_ = 0;
    }

    /** Calls f(item) for every queued item, oldest first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < size_; ++i)
            f(*slot((head_ + i) & (cap_ - 1)));
    }

  private:
    T *
    slot(std::size_t i)
    {
        return (heap_ ? heap_
                      : std::launder(reinterpret_cast<T *>(inline_))) +
            i;
    }

    const T *
    slot(std::size_t i) const
    {
        return (heap_ ? heap_
                      : std::launder(
                            reinterpret_cast<const T *>(inline_))) +
            i;
    }

    void
    grow()
    {
        const std::size_t new_cap = cap_ * 2;
        T *fresh = std::allocator<T>().allocate(new_cap);
        for (std::size_t i = 0; i < size_; ++i) {
            T *src = slot((head_ + i) & (cap_ - 1));
            ::new (static_cast<void *>(fresh + i)) T(std::move(*src));
            src->~T();
        }
        if (heap_)
            std::allocator<T>().deallocate(heap_, cap_);
        heap_ = fresh;
        cap_ = new_cap;
        head_ = 0;
    }

    alignas(T) std::byte inline_[sizeof(T) * INLINE];
    T *heap_ = nullptr;
    std::size_t cap_ = INLINE;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace tenoc

#endif // TENOC_COMMON_RING_HH
