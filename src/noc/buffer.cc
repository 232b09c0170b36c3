/**
 * @file
 * InputPort implementation.
 */

#include "noc/buffer.hh"

#include "common/snapshot.hh"

namespace tenoc
{

InputPort::InputPort(unsigned vcs, unsigned depth)
    : owned_(std::make_unique<VcSlabs>()), slab_(owned_.get()),
      base_(0), nvcs_(vcs), depth_(depth)
{
    tenoc_assert(vcs >= 1 && depth >= 1, "bad input port geometry");
    owned_->configure(vcs, 0, depth);
}

InputPort::InputPort(VcSlabs &slab, std::size_t base, unsigned vcs,
                     unsigned depth)
    : slab_(&slab), base_(base), nvcs_(vcs), depth_(depth)
{
    tenoc_assert(vcs >= 1 && depth >= 1, "bad input port geometry");
    tenoc_assert(slab.depth() == depth &&
                     base + vcs <= slab.numInputVcs(),
                 "input port view exceeds slab");
}

void
InputPort::push(Flit &&flit, Cycle now)
{
    tenoc_assert(flit.vc < nvcs_, "push to out-of-range VC ", flit.vc);
    tenoc_assert(slab_->ringCount[base_ + flit.vc] < depth_,
                 "VC buffer overflow (credit protocol violated), vc=",
                 flit.vc);
    flit.enqueueCycle = now;
    const unsigned vc = flit.vc;
#if defined(__GNUC__) || defined(__clang__)
    // An arriving head flit will be dereferenced by route computation
    // later this cycle; its Packet lives at an arbitrary heap address,
    // so start pulling the line in now (no architectural effect).
    if (flit.head)
        __builtin_prefetch(flit.pkt.get(), 0, 2);
#endif
    slab_->pushFlit(base_ + vc, std::move(flit));
    ++total_;
}

Flit
InputPort::pop(unsigned vc)
{
    tenoc_assert(slab_->ringCount[base_ + vc] != 0,
                 "pop() on empty VC");
    --total_;
    return slab_->popFlit(base_ + vc);
}

void
InputPort::save(SnapshotWriter &w) const
{
    w.tag("INPT");
    w.u64(nvcs_);
    for (unsigned vc = 0; vc < nvcs_; ++vc) {
        const std::size_t idx = base_ + vc;
        w.u8(static_cast<std::uint8_t>(slab_->inState[idx]));
        w.u32(slab_->inOutPort[idx]);
        w.u32(slab_->inOutVc[idx]);
        w.u64(slab_->ringCount[idx]);
        slab_->forEachRingFlit(idx,
                               [&](const Flit &flit) { saveFlit(w, flit); });
    }
}

void
InputPort::restore(SnapshotReader &r)
{
    r.tag("INPT");
    const std::uint64_t vcs = r.u64();
    tenoc_assert(vcs == nvcs_, "input-port VC count mismatch");
    total_ = 0;
    for (unsigned vc = 0; vc < nvcs_; ++vc) {
        const std::size_t idx = base_ + vc;
        const std::uint8_t state = r.u8();
        tenoc_assert(state <= static_cast<std::uint8_t>(VcState::ACTIVE),
                     "restored VC state ", unsigned{state},
                     " names no VcState");
        slab_->inState[idx] = static_cast<VcState>(state);
        slab_->inOutPort[idx] = r.u32();
        slab_->inOutVc[idx] = r.u32();
        slab_->ringHead[idx] = 0;
        slab_->ringCount[idx] = 0;
        const std::uint64_t flits = r.u64();
        tenoc_assert(flits <= depth_, "restored VC overflows buffer");
        for (std::uint64_t i = 0; i < flits; ++i)
            slab_->pushFlit(idx, loadFlit(r));
        total_ += flits;
    }
}

} // namespace tenoc
