/**
 * @file
 * Miss-status holding registers (64 per core, Table II).
 *
 * Tracks outstanding line refills; accesses to an already-pending line
 * merge onto the existing entry instead of issuing another request.
 * A full table stalls the core's memory stage (the closed-loop
 * self-throttling the paper's simulations rely on).
 *
 * The table is flat and fixed-capacity: an open-addressed index maps a
 * line to one of `entries` storage slots, and each slot has room for
 * `max_merged` waiters, so steady-state operation never allocates.  A
 * generation counter changes whenever the table does, which lets a
 * caller skip re-judging refused accesses until some answer could
 * differ (the SIMT core re-judges its MSHR-parked warps only then).
 */

#ifndef TENOC_CACHE_MSHR_HH
#define TENOC_CACHE_MSHR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"

namespace tenoc
{

/** MSHR table keyed by line address. */
class MshrTable
{
  public:
    /**
     * @param entries maximum outstanding distinct lines
     * @param max_merged maximum accesses merged per entry
     */
    explicit MshrTable(unsigned entries, unsigned max_merged = 32);

    unsigned capacity() const { return entries_; }
    unsigned maxMerged() const { return max_merged_; }
    std::size_t size() const { return used_; }
    bool full() const { return used_ >= entries_; }

    /** @return true if a refill for this line is already pending. */
    bool pending(Addr line) const { return find(line) != NONE; }

    /**
     * @return true if a new access for `line` can be tracked (either a
     * fresh entry is available or the existing entry can merge).
     */
    bool canAllocate(Addr line) const;

    /**
     * Records an access waiting on `line` with opaque `waiter`.
     * @return true if this allocated a NEW entry (i.e. a request must
     * be sent); false if merged onto an existing one.
     */
    bool allocate(Addr line, std::uint64_t waiter);

    /**
     * Completes the refill of `line`.
     * @return the merged waiters in allocation order; the view stays
     * valid until the next release()
     */
    std::span<const std::uint64_t> release(Addr line);

    /** Merged-access count for a pending line (0 when not pending). */
    std::size_t
    waiters(Addr line) const
    {
        const unsigned b = find(line);
        return b == NONE ? 0 : slots_[buckets_[b] - 1].count;
    }

    /** Changes on every allocate and release: while it holds
     *  still, canAllocate() answers every line as it did before. */
    std::uint64_t generation() const { return generation_; }

    // --- stats ---
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t merges() const { return merges_; }

  private:
    static constexpr unsigned NONE = ~0u;

    /** One storage slot: a pending line and its merged waiters. */
    struct Slot
    {
        Addr line = 0;
        std::uint32_t count = 0;       ///< waiters held
        std::uint32_t nextFree = NONE; ///< free-list link while unused
    };

    /** @return the home bucket of `line` (Fibonacci hashing). */
    unsigned
    home(Addr line) const
    {
        return static_cast<unsigned>(
            (line * 0x9e3779b97f4a7c15ull) >> hash_shift_);
    }

    /** @return the bucket indexing `line`, or NONE. */
    unsigned
    find(Addr line) const
    {
        // Linear probing at load <= 1/2 always meets an empty bucket.
        for (unsigned b = home(line);; b = (b + 1) & bucket_mask_) {
            if (buckets_[b] == 0)
                return NONE;
            if (slots_[buckets_[b] - 1].line == line)
                return b;
        }
    }

    /** Takes `bucket` out of the index (backward-shift deletion). */
    void unlink(unsigned bucket);

    /** @return the index in waiters_ of waiter `k` of `slot`. */
    std::size_t
    waiterAt(unsigned slot, std::uint32_t k) const
    {
        return static_cast<std::size_t>(k) * entries_ + slot;
    }

    unsigned entries_;
    unsigned max_merged_;
    unsigned used_ = 0;
    /** Open-addressed index over the pending lines: storage slot + 1,
     *  0 when empty.  A power of two at least twice `entries_`, so
     *  probe runs stay short. */
    std::vector<std::uint16_t> buckets_;
    unsigned bucket_mask_ = 0;
    unsigned hash_shift_ = 0;
    /** Storage slots, added as the table first fills (at most
     *  `entries_`); released slots form a LIFO list through
     *  Slot::nextFree. */
    std::vector<Slot> slots_;
    /** Waiters, merge depth major: row k holds waiter k of every
     *  slot.  A row is added the first time some entry reaches its
     *  depth (at most `max_merged_` rows), so the table holds only
     *  the depths merging has reached. */
    std::vector<std::uint64_t> waiters_;
    /** The waiters the last release() returned. */
    std::vector<std::uint64_t> released_;
    unsigned free_head_ = NONE;
    std::uint64_t generation_ = 0;
    std::uint64_t allocations_ = 0;
    std::uint64_t merges_ = 0;
};

} // namespace tenoc

#endif // TENOC_CACHE_MSHR_HH
