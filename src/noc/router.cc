/**
 * @file
 * Router implementation.
 */

#include "noc/router.hh"

#include <bit>

#include "noc/link.hh"
#include "telemetry/trace_sink.hh"

namespace tenoc
{

Router::Router(NodeId id, const Topology &topo,
               const Routing &routing, const Params &params,
               VcSlabs &slab, std::size_t in_vc_base,
               std::size_t out_vc_base, ActiveSet &active,
               NetCounters &counters)
    : id_(id), topo_(topo), routing_(routing), params_(params),
      nvcs_(params.vcMap.numVcs()), slab_(slab), in_base_(in_vc_base),
      out_base_(out_vc_base), active_(active), counters_(counters)
{
    tenoc_assert(params_.numInjPorts >= 1 && params_.numEjPorts >= 1,
                 "router needs at least one injection/ejection port");
    tenoc_assert(in_base_ + numInputs() * nvcs_ <= slab.numInputVcs() &&
                     out_base_ + numOutputs() * nvcs_ <=
                         slab.numOutputVcs() &&
                     slab.depth() == params_.vcDepth,
                 "router view exceeds slab at node ", id_);
    const unsigned vcs = nvcs_;
    in_vcs_ = slab_.in.data() + in_base_;
    out_vcs_ = slab_.out.data() + out_base_;
    outputs_.resize(numOutputs());
    in_links_.fill(NO_LINK);
    tenoc_assert(numInputs() * vcs <= MAX_INPUT_VCS &&
                     numOutputs() <= MAX_OUTPUTS,
                 "router ", id_, " has ", numInputs(), " inputs x ", vcs,
                 " VCs and ", numOutputs(), " outputs; a router takes ",
                 MAX_INPUT_VCS, " input VCs and ", MAX_OUTPUTS,
                 " outputs");
    sa_input_arb_.assign(numInputs(), RoundRobinArbiter(vcs));
    masks_.vaReqs.assign(numOutputs(), 0);
    sa_out_reqs_.assign(numOutputs(), 0);
    sa_nominee_.resize(numInputs());
    for (unsigned o = 0; o < numOutputs(); ++o) {
        outputs_[o].vaArb.resize(numInputs() * vcs);
        outputs_[o].saArb.resize(numInputs());
        // Output VC credits start at zero (slab configure() default):
        // mesh outputs gain vcDepth credits when wired via connect();
        // ejection capacity is governed by the NI sink, not credits.
    }
}

unsigned
Router::connect(Direction d, Router &down, LinkWheel &wheel)
{
    tenoc_assert(d < NUM_DIRS && &down.slab_ == &slab_ &&
                     down.nvcs_ == nvcs_,
                 "invalid link from router ", id_);
    const unsigned in = opposite(d);
    const unsigned link =
        wheel.addLink({this, d, &down, in, out_base_ + d * nvcs_});
    outputs_[d].link = link;
    down.in_links_[in] = link;
    wheel_ = &wheel;
    down.wheel_ = &wheel;
    for (unsigned vc = 0; vc < nvcs_; ++vc)
        out_vcs_[d * nvcs_ + vc].credits = params_.vcDepth;
    return link;
}

void
Router::injectFlit(unsigned inj, const Flit &flit, Cycle now)
{
    pushFlit(NUM_DIRS + inj, flit, now);
}

bool
Router::connectivityAllows(unsigned in, unsigned out) const
{
    if (isInjection(in))
        return true; // injection reaches every output
    if (isEjection(out))
        return true;             // every input reaches ejection
    if (!params_.half) {
        // Full crossbar.  Minimal routing never asks for a U-turn,
        // so the model does not forbid one.
        return true;
    }
    // Half-router: through traffic must continue straight (Fig. 13).
    return out == opposite(static_cast<Direction>(in));
}

unsigned
Router::nextEjectionPort()
{
    const unsigned p = ej_rr_;
    ej_rr_ = p + 1 == params_.numEjPorts ? 0 : p + 1;
    return NUM_DIRS + p;
}

namespace
{

constexpr std::uint64_t
bit(unsigned i)
{
    return std::uint64_t{1} << i;
}

} // namespace

void
Router::pushFlit(unsigned in, const Flit &flit, Cycle now)
{
    tenoc_assert(flit.vc < nvcs_, "push to out-of-range VC ", flit.vc);
#if defined(__GNUC__) || defined(__clang__)
    // An arriving head flit will be dereferenced by route computation
    // later this cycle; its Packet lives at an arbitrary heap address,
    // so start pulling the line in now (no architectural effect).
    if (flit.head)
        __builtin_prefetch(flit.pkt, 0, 2);
#endif
    const unsigned i = in * nvcs_ + flit.vc;
    slab_.pushFlit(in_base_ + i, flit, now);
    // The pushed flit makes an IDLE VC routable and an ACTIVE VC
    // switchable; a VC_ALLOC VC already holds its head.
    const VcState st = in_vcs_[i].state;
    if (st == VcState::IDLE)
        masks_.rc |= bit(i);
    else if (st == VcState::ACTIVE)
        masks_.sa |= bit(i);
    active_.mark(id_);
}

void
Router::routeCompute(Cycle now)
{
    (void)now;
    const unsigned vcs = nvcs_;
    for (std::uint64_t m = masks_.rc; m != 0; m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        const unsigned in = i / vcs;
        const unsigned vc = i - in * vcs;
        InVc &v = in_vcs_[i];
        const Flit &head = slab_.frontFlit(in_base_ + i);
        tenoc_assert(head.head,
                     "non-head flit at front of idle VC (router ",
                     id_, " in ", in, " vc ", vc, ")");
        Packet &pkt = *head.pkt;
        unsigned out = routing_.route(id_, pkt);
        if (out == PORT_EJECT) {
            tenoc_assert(pkt.dst == id_,
                         "ejection at non-destination node");
            out = nextEjectionPort();
        } else {
            tenoc_assert(out < NUM_DIRS &&
                         topo_.neighbor(id_,
                             static_cast<Direction>(out)) !=
                             INVALID_NODE,
                         "route off mesh edge at node ", id_);
        }
        tenoc_assert(connectivityAllows(in, out),
                     "illegal turn at ", params_.half ? "half" :
                     "full", "-router ", id_, ": in=",
                     inputPortName(in), " out=", outputPortName(out));
        v.outPort = static_cast<std::uint8_t>(out);
        // The packet is already hot here; caching its VC-class base
        // spares VC allocation the pointer chase entirely.
        v.baseVc = static_cast<std::uint8_t>(params_.vcMap.baseVc(pkt));
        v.state = VcState::VC_ALLOC;
        masks_.va |= bit(i);
        masks_.vaReqs[out] |= bit(i);
        masks_.vaOuts |= bit(out);
    }
    // Every VC in the mask has been routed.
    masks_.rc = 0;
}

void
Router::vcAllocate(Cycle now)
{
    const unsigned vcs = nvcs_;
    // Only outputs with requestors: one with none would grant nothing,
    // and an arbiter only advances when a grant is accepted.
    for (std::uint64_t outs = masks_.vaOuts; outs != 0; outs &= outs - 1) {
        const auto o = static_cast<unsigned>(std::countr_zero(outs));
        // Bit i = input VC i waits for an output VC here.
        std::uint64_t &reqs = masks_.vaReqs[o];
        RoundRobinArbiter &arb = outputs_[o].vaArb;
        OutVc *const ovcs = out_vcs_ + o * vcs;
        // Grant output VCs in round-robin requestor order until the
        // requestors run out.
        for (std::uint64_t untried = reqs; untried != 0;) {
            const unsigned idx = arb.grantMask(untried);
            untried &= ~bit(idx);
            InVc &v = in_vcs_[idx];
            unsigned granted = vcs;
            for (unsigned l = 0; l < params_.vcMap.vcsPerClass; ++l) {
                if (!ovcs[v.baseVc + l].owned) {
                    granted = v.baseVc + l;
                    break;
                }
            }
            if (granted == vcs) {
                // No eligible VC free; the requestor stays in this
                // output's set and retries next cycle.  Other
                // requestors may still want different
                // (protocol/routing class) VCs.
                continue;
            }
            const unsigned in = idx / vcs;
            OutVc &g = ovcs[granted];
            g.owned = 1;
            g.ownerIn = static_cast<std::uint8_t>(in);
            g.ownerVc = static_cast<std::uint8_t>(idx - in * vcs);
            v.outVc = static_cast<std::uint8_t>(granted);
            v.state = VcState::ACTIVE;
            // A VC_ALLOC VC always buffers its head flit.
            reqs &= ~bit(idx);
            masks_.va &= ~bit(idx);
            masks_.sa |= bit(idx);
            arb.accept(idx);
            if (tracer_) {
                const Packet &pkt = *slab_.frontFlit(in_base_ + idx).pkt;
                if (tracer_->wants(pkt.id))
                    tracer_->instant("va", id_, pkt.id, now);
            }
        }
        if (reqs == 0)
            masks_.vaOuts &= ~bit(o);
    }
}

void
Router::switchAllocate(Cycle now)
{
    // Candidates: the ACTIVE VCs with a buffered flit.  The expensive
    // per-flit eligibility checks below only touch those bits.
    std::uint64_t &cand = masks_.sa;
    if (cand == 0)
        return;
    const unsigned vcs = nvcs_;
    // One input's VCs; with five or more inputs, vcs is at most 12.
    const std::uint64_t port_vcs = bit(vcs) - 1;

    // Input stage: each input port nominates one ready VC.
    auto &nominee = sa_nominee_;
    std::uint64_t requested = 0; // bit o: output o has a nominee
    for (unsigned in = 0; in < numInputs(); ++in) {
        const std::uint64_t req = (cand >> (in * vcs)) & port_vcs;
        if (req == 0)
            continue;
        const InVc *const port = in_vcs_ + in * vcs;
        std::uint64_t elig = 0;
        for (std::uint64_t m = req; m != 0; m &= m - 1) {
            const auto vc = static_cast<unsigned>(std::countr_zero(m));
            const InVc &v = port[vc];
            // A flit spends `pipelineDepth` cycles in the router (it
            // departs no earlier than arrival + depth), giving the
            // paper's 5-cycle hops for 4-stage routers + 1-cycle
            // channels (Sec. III-B).
            if (v.headAt + params_.pipelineDepth > now)
                continue; // still in the router pipeline
            const unsigned o = v.outPort;
            if (isEjection(o)) {
                tenoc_assert(sink_, "no ejection sink attached");
                if (!sink_->ejectReady(o - NUM_DIRS))
                    continue;
            } else if (out_vcs_[o * vcs + v.outVc].credits == 0) {
                continue;
            }
            elig |= bit(vc);
        }
        if (elig == 0)
            continue;
        const unsigned win = sa_input_arb_[in].grantMask(elig);
        nominee[in] = win;
        const unsigned o = port[win].outPort;
        sa_out_reqs_[o] |= bit(in);
        requested |= bit(o);
    }

    // Output stage: one winner per requested output port, ascending.
    for (; requested != 0; requested &= requested - 1) {
        const auto o = static_cast<unsigned>(std::countr_zero(requested));
        std::uint64_t &reqs = sa_out_reqs_[o];
        const unsigned in = outputs_[o].saArb.grantMask(reqs);
        reqs = 0;
        const unsigned vc = nominee[in];

        // Switch traversal.
        const unsigned i = in * vcs + vc;
        InVc &v = in_vcs_[i];
        Flit flit = slab_.popFlit(in_base_ + i);
        const unsigned out_vc = v.outVc;
        const bool tail = flit.tail;
        if (!isInjection(in) && in_links_[in] != NO_LINK)
            wheel_->sendCredit(in_links_[in], flit.vc, now);
        if (tracer_ && flit.head && tracer_->wants(flit.pkt->id)) {
            tracer_->complete(isEjection(o) ? "eject_hop" : "hop", id_,
                              flit.pkt->id, flit.enqueueCycle, now);
        }
        flit.vc = out_vc;
        if (isEjection(o)) {
            sink_->ejectFlit(o - NUM_DIRS, flit, now);
        } else {
            auto &credits = out_vcs_[o * vcs + out_vc].credits;
            tenoc_assert(credits > 0, "SA granted without credit");
            --credits;
            wheel_->sendFlit(outputs_[o].link, flit, now);
            ++link_flits_[o];
        }
        const std::uint64_t b = bit(i);
        if (tail) {
            out_vcs_[o * vcs + out_vc].owned = 0;
            v.state = VcState::IDLE;
            cand &= ~b;
            // The next packet's head may already wait behind the tail.
            if (v.ringCount != 0)
                masks_.rc |= b;
        } else if (v.ringCount == 0) {
            cand &= ~b;
        }
        ++flits_traversed_;
        ++counters_.traversed;
        sa_input_arb_[in].accept(vc);
        outputs_[o].saArb.accept(in);
    }
}

bool
Router::empty() const
{
    // Every buffered flit sits on an IDLE, VC_ALLOC or ACTIVE VC, so it
    // is in exactly one stage mask.
    return (masks_.rc | masks_.va | masks_.sa) == 0;
}

Router::StageMasks
Router::deriveStageMasks() const
{
    StageMasks m;
    m.vaReqs.assign(numOutputs(), 0);
    for (unsigned i = 0; i < numInputs() * nvcs_; ++i) {
        const InVc &v = in_vcs_[i];
        switch (v.state) {
          case VcState::IDLE:
            if (v.ringCount != 0)
                m.rc |= bit(i);
            break;
          case VcState::VC_ALLOC:
            m.va |= bit(i);
            if (v.outPort < numOutputs()) {
                m.vaReqs[v.outPort] |= bit(i);
                m.vaOuts |= bit(v.outPort);
            }
            break;
          case VcState::ACTIVE:
            if (v.ringCount != 0)
                m.sa |= bit(i);
            break;
        }
    }
    return m;
}

std::uint64_t
Router::bufferedFlits() const
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < numInputs() * nvcs_; ++i)
        n += in_vcs_[i].ringCount;
    return n;
}

} // namespace tenoc
