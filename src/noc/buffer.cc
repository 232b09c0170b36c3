/**
 * @file
 * InputPort implementation.
 */

#include "noc/buffer.hh"

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
InputPort::push(Flit flit, Cycle now)
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
        __builtin_prefetch(flit.pkt, 0, 2);
#endif
    slab_->pushFlit(base_ + vc, flit);
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

} // namespace tenoc
