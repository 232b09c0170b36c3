/**
 * @file
 * Activity tracking for idle-skip scheduling.
 *
 * An ActiveSet is a bitmask over component indices (routers or NIs of
 * one network).  Components mark themselves active when work arrives
 * (a flit buffered, a credit in flight, a packet enqueued); every phase
 * of MeshNetwork::cycle visits only the marked indices of its shard's
 * range [lo, hi) and the network retires the components that ran out
 * of work at the end of the cycle.  Visits are in ascending index
 * order, so the tick order is identical to the full tick-everything
 * sweep and the simulation stays bit-exact (see docs/performance.md).
 *
 * One shard (S = 1) reads the live words: a mark made by one phase is
 * visited by the later phases of the same cycle.  Several shards
 * running in parallel (common/parallel.hh) use *deferred marking*
 * instead: while a phase runs, the word array is frozen and mark()
 * appends the index to a per-worker buffer instead of writing a shared
 * word.  mergeDeferredMarks() ORs the buffers back at the phase
 * barrier; since marking is idempotent the merge order cannot matter,
 * and because the words are frozen during the phase no snapshot copy
 * is needed — readers of test() see exactly the mask the phase started
 * with.  Both visibilities give identical results: a mark made during
 * a phase only ever wakes a component whose visit in that phase would
 * be a no-op.
 */

#ifndef TENOC_NOC_ACTIVITY_HH
#define TENOC_NOC_ACTIVITY_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/parallel.hh"

namespace tenoc
{

/** Dense bitmask of active component indices. */
class ActiveSet
{
  public:
    explicit ActiveSet(unsigned n = 0) { resize(n); }

    /** Clears the set and sizes it for indices [0, n). */
    void
    resize(unsigned n)
    {
        words_.assign((n + 63) / 64, 0);
    }

    void
    mark(unsigned i)
    {
        if (deferring_) {
            // Words are frozen during a parallel phase, so this test
            // races with nothing and already-set bits (the common
            // case: waking an active component) cost no buffer entry.
            if (!test(i))
                deferred_[parallel::workerSlot()].buf.push_back(i);
            return;
        }
        words_[i >> 6] |= WORD_ONE << (i & 63);
    }

    void clear(unsigned i) { words_[i >> 6] &= ~(WORD_ONE << (i & 63)); }

    bool
    test(unsigned i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /** Number of marked indices. */
    unsigned
    popCount() const
    {
        unsigned n = 0;
        for (auto w : words_)
            n += static_cast<unsigned>(std::popcount(w));
        return n;
    }

    /** Raw mask words (checkpoint/restore). */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /** Overwrites the mask words (checkpoint/restore); the word count
     *  must match this set's size. */
    void
    setWords(const std::vector<std::uint64_t> &words)
    {
        tenoc_assert(words.size() == words_.size(),
                     "active-set word count mismatch");
        words_ = words;
    }

    // --- deferred marking (parallel phase execution) ---

    /** Allocates per-worker mark buffers; idempotent. */
    void
    enableDeferredMarks()
    {
        if (deferred_.empty())
            deferred_.resize(parallel::maxSlots());
    }

    /** Freezes the word array: marks buffer until the next merge. */
    void beginDeferred() { deferring_ = true; }

    /** Leaves deferred mode (words become directly writable again). */
    void endDeferred() { deferring_ = false; }

    /**
     * ORs every buffered mark into the word array and empties the
     * buffers.  Call only at a phase barrier (single-threaded).  The
     * result is independent of buffer order — marking is idempotent —
     * so it is bit-identical to one shard's live marks.
     */
    void
    mergeDeferredMarks()
    {
        for (auto &slot : deferred_) {
            for (const unsigned i : slot.buf)
                words_[i >> 6] |= WORD_ONE << (i & 63);
            slot.buf.clear();
        }
    }

    /**
     * Calls f(index) for each marked index in [lo, hi), ascending: one
     * shard's slice of the mask.  Shard boundaries fall mid-word
     * without double visits because both edges are masked.  Bits set
     * during iteration inside the word currently being scanned are not
     * visited this pass; callers rely only on marks set in earlier
     * phases of the cycle being visited (see MeshNetwork::cycle).
     */
    template <typename F>
    void
    forEachInRange(unsigned lo, unsigned hi, F &&f) const
    {
        if (lo >= hi)
            return;
        const std::size_t w0 = lo >> 6;
        const std::size_t w1 = (hi - 1) >> 6;
        for (std::size_t w = w0; w <= w1; ++w) {
            std::uint64_t bits = words_[w];
            if (w == w0 && (lo & 63) != 0)
                bits &= ~std::uint64_t{0} << (lo & 63);
            if (w == w1 && (hi & 63) != 0)
                bits &= (WORD_ONE << (hi & 63)) - 1;
            while (bits) {
                const auto b =
                    static_cast<unsigned>(std::countr_zero(bits));
                bits &= bits - 1;
                f(static_cast<unsigned>(w * 64 + b));
            }
        }
    }

    /** Clears every marked index for which `pred(index)` is true. */
    template <typename Pred>
    void
    retireIf(Pred &&pred)
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits) {
                const auto b =
                    static_cast<unsigned>(std::countr_zero(bits));
                bits &= bits - 1;
                const auto idx = static_cast<unsigned>(w * 64 + b);
                if (pred(idx))
                    clear(idx);
            }
        }
    }

  private:
    static constexpr std::uint64_t WORD_ONE = 1;

    /**
     * One worker's mark buffer, padded to a cache line: adjacent
     * std::vector headers (size/capacity pointers mutated on every
     * push_back) otherwise share a line and false-share across the
     * workers of a parallel phase.
     */
    struct alignas(parallel::CACHE_LINE) DeferredSlot
    {
        std::vector<unsigned> buf;
    };

    std::vector<std::uint64_t> words_;
    bool deferring_ = false;
    /** Per-worker-slot mark buffers (see file comment). */
    std::vector<DeferredSlot> deferred_;
};

} // namespace tenoc

#endif // TENOC_NOC_ACTIVITY_HH
