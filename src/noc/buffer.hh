/**
 * @file
 * Per-input-port virtual channel buffers and VC bookkeeping.
 *
 * Since the structure-of-arrays refactor an InputPort is a *view*: the
 * actual VC state machines and flit storage live in a VcSlabs arena
 * (normally the owning network's; standalone ports for unit tests carry
 * a private one).  The public API is unchanged, so router pipeline
 * code, the invariant checker, golden shadow models and telemetry
 * samplers are oblivious to where the bytes live.
 */

#ifndef TENOC_NOC_BUFFER_HH
#define TENOC_NOC_BUFFER_HH

#include <memory>

#include "common/log.hh"
#include "noc/flit.hh"
#include "noc/slab.hh"

namespace tenoc
{

/**
 * The buffers and per-VC state of one router input port.
 */
class InputPort
{
  public:
    /**
     * Standalone port owning its own storage (unit tests, ad-hoc use).
     *
     * @param vcs number of virtual channels
     * @param depth flit slots per VC
     */
    InputPort(unsigned vcs, unsigned depth);

    /**
     * View of `vcs` consecutive input VCs starting at global index
     * `base` inside `slab` (which must already be configured with ring
     * depth `depth` and at least `base + vcs` input VCs).
     */
    InputPort(VcSlabs &slab, std::size_t base, unsigned vcs,
              unsigned depth);

    InputPort(InputPort &&) = default;
    InputPort &operator=(InputPort &&) = default;

    unsigned numVcs() const { return nvcs_; }
    unsigned depth() const { return depth_; }

    /** Buffers an arriving flit on its VC, stamping its enqueue cycle;
     *  panics on overflow. */
    void push(Flit flit, Cycle now);

    /** @return flits currently buffered on `vc`. */
    std::size_t
    occupancy(unsigned vc) const
    {
        return slab_->ringCount[base_ + vc];
    }

    /** @return free slots on `vc`. */
    unsigned
    freeSlots(unsigned vc) const
    {
        return depth_ - slab_->ringCount[base_ + vc];
    }

    bool empty(unsigned vc) const { return occupancy(vc) == 0; }

    /** @return the flit at the head of `vc` (must be non-empty). */
    const Flit &front(unsigned vc) const
    {
        return slab_->frontFlit(base_ + vc);
    }

    /** Removes and returns the head flit of `vc`. */
    Flit pop(unsigned vc);

    /** Per-VC pipeline state. */
    VcState state(unsigned vc) const { return slab_->inState[base_ + vc]; }
    void setState(unsigned vc, VcState s) { slab_->inState[base_ + vc] = s; }

    /** Output port assigned by route computation. */
    unsigned outPort(unsigned vc) const
    {
        return slab_->inOutPort[base_ + vc];
    }
    void setOutPort(unsigned vc, unsigned p)
    {
        slab_->inOutPort[base_ + vc] = p;
    }

    /** Output VC granted by VC allocation. */
    unsigned outVc(unsigned vc) const { return slab_->inOutVc[base_ + vc]; }
    void setOutVc(unsigned vc, unsigned v)
    {
        slab_->inOutVc[base_ + vc] = v;
    }

    /** Head packet's first eligible output VC, cached by RC (derived
     *  state; only meaningful while the VC is in VC_ALLOC/ACTIVE). */
    unsigned baseVc(unsigned vc) const
    {
        return slab_->inBaseVc[base_ + vc];
    }
    void setBaseVc(unsigned vc, unsigned b)
    {
        slab_->inBaseVc[base_ + vc] = b;
    }

    /** Total flits buffered across all VCs (O(1), kept by push/pop). */
    std::size_t totalOccupancy() const { return total_; }

    /** Calls f(vc, flit) for every buffered flit, head first per VC. */
    template <typename F>
    void
    forEachFlit(F &&f) const
    {
        for (unsigned vc = 0; vc < nvcs_; ++vc)
            slab_->forEachRingFlit(
                base_ + vc, [&](const Flit &flit) { f(vc, flit); });
    }

  private:
    // When standalone, the port's private arena; null for views.
    // Declared before slab_ so the view pointer can target it.
    std::unique_ptr<VcSlabs> owned_;
    VcSlabs *slab_;
    std::size_t base_;
    unsigned nvcs_;
    unsigned depth_;
    std::size_t total_ = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_BUFFER_HH
