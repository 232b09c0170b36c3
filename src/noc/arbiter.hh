/**
 * @file
 * Round-robin arbiters used by the separable (iSLIP-style) allocators.
 */

#ifndef TENOC_NOC_ARBITER_HH
#define TENOC_NOC_ARBITER_HH

#include <bit>
#include <cstdint>

#include "common/log.hh"

namespace tenoc
{

/**
 * Classic rotating-priority arbiter: the winner is the first requestor
 * at or after the pointer (wrapping), and in iSLIP fashion the pointer
 * only advances past a winner when its grant is accepted.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(unsigned size = 0) { resize(size); }

    void resize(unsigned size)
    {
        tenoc_assert(size <= 64, "round-robin arbiter takes at most 64"
                     " requestors, got ", size);
        size_ = size;
        if (pointer_ >= size_)
            pointer_ = 0;
    }

    unsigned size() const { return size_; }

    /**
     * Bitmask grant over requests packed into bit i of `requests`, in
     * O(1) via count-trailing-zeros (the winner is the lowest set bit
     * at or after the pointer, else the lowest set bit overall).  An
     * arbiter has at most 64 requestors, so one word holds them all.
     *
     * @return winning index, or size() if no requests
     */
    unsigned
    grantMask(std::uint64_t requests) const
    {
        if (requests == 0)
            return size_;
        const std::uint64_t at_or_after =
            requests & (~std::uint64_t{0} << pointer_);
        return static_cast<unsigned>(std::countr_zero(
            at_or_after ? at_or_after : requests));
    }

    /** Advances priority past `winner` (call when grant is accepted). */
    void
    accept(unsigned winner)
    {
        tenoc_assert(winner < size_, "accept of invalid winner");
        pointer_ = winner + 1 == size_ ? 0 : winner + 1;
    }

    /** Current priority pointer. */
    unsigned pointer() const { return pointer_; }

    /** Overwrites the priority pointer (tests start from any pointer). */
    void
    setPointer(unsigned p)
    {
        tenoc_assert(size_ == 0 || p < size_, "arbiter pointer ", p,
                     " out of range ", size_);
        pointer_ = p;
    }

  private:
    unsigned size_ = 0;
    unsigned pointer_ = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_ARBITER_HH
