/**
 * @file
 * Activity tracking for idle-skip scheduling, and the running counters
 * a network's routers and NIs keep for it.
 *
 * An ActiveSet is a bitmask over component indices (routers or NIs of
 * one network).  Components are marked active when work arrives (a
 * flit injected, a flit or credit reaching its arrival cycle, a packet
 * enqueued); every phase of MeshNetwork::cycle visits only the marked
 * indices and the network retires the components that ran out of work
 * at the end of the cycle.  Visits are in ascending index order, so
 * the tick order is identical to a tick-everything sweep and the
 * simulation stays bit-exact (see docs/performance.md).  A mark made
 * by one phase is visited by the later phases of the same cycle.
 */

#ifndef TENOC_NOC_ACTIVITY_HH
#define TENOC_NOC_ACTIVITY_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace tenoc
{

/** Dense bitmask of active component indices. */
class ActiveSet
{
  public:
    /** An empty set of indices [0, n). */
    explicit ActiveSet(unsigned n) : words_((n + 63) / 64, 0) {}

    void mark(unsigned i) { words_[i >> 6] |= WORD_ONE << (i & 63); }

    void clear(unsigned i) { words_[i >> 6] &= ~(WORD_ONE << (i & 63)); }

    bool
    test(unsigned i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /**
     * Calls f(index) for each marked index, ascending.  Bits set during
     * iteration inside the word currently being scanned are not
     * visited this pass; callers rely only on marks set in earlier
     * phases of the cycle being visited (see MeshNetwork::cycle).
     */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
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
        forEach([&](unsigned i) {
            if (pred(i))
                clear(i);
        });
    }

  private:
    static constexpr std::uint64_t WORD_ONE = 1;

    std::vector<std::uint64_t> words_;
};

/**
 * One network's running counters.  Its routers and NIs get them at
 * construction and bump them on the hot path; the network's watchdog
 * and telemetry and its invariant checker read them.  They count this
 * network only: NetStats totals are shared between double-network
 * slices and cannot serve these purposes.
 */
struct NetCounters
{
    /** Packets inside the network (NI enqueue .. tail drained from an
     *  ejection buffer); makes Network::drained() O(1). */
    std::uint64_t inflight = 0;
    /** Flits injected into routers and drained from ejection buffers.
     *  Their difference is the exact flit population of the network
     *  (router buffers + links + ejection buffers). */
    std::uint64_t flitsIn = 0;
    std::uint64_t flitsOut = 0;
    /** Router switch traversals, so telemetry samples total flit hops
     *  without re-summing every router. */
    std::uint64_t traversed = 0;

    /** Grows with every flit movement: injection into a router, a
     *  switch traversal or an ejection-buffer drain (watchdog). */
    std::uint64_t
    progress() const
    {
        return flitsIn + flitsOut + traversed;
    }
};

} // namespace tenoc

#endif // TENOC_NOC_ACTIVITY_HH
