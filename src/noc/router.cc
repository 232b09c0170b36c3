/**
 * @file
 * Router implementation.
 */

#include "noc/router.hh"

#include <algorithm>
#include <bit>

#include "common/snapshot.hh"
#include "telemetry/trace_sink.hh"

namespace tenoc
{

Router::Router(NodeId id, const Topology &topo,
               RoutingAlgorithm &routing, const Params &params)
    : id_(id), topo_(topo), routing_(routing), params_(params),
      nvcs_(params.vcMap.numVcs()),
      owned_slab_(std::make_unique<VcSlabs>()),
      slab_(owned_slab_.get()), in_base_(0), out_base_(0)
{
    tenoc_assert(params_.numInjPorts >= 1 && params_.numEjPorts >= 1,
                 "router needs at least one injection/ejection port");
    owned_slab_->configure(numInputs() * nvcs_, numOutputs() * nvcs_,
                           params_.vcDepth);
    initPorts();
}

Router::Router(NodeId id, const Topology &topo,
               RoutingAlgorithm &routing, const Params &params,
               VcSlabs &slab, std::size_t in_vc_base,
               std::size_t out_vc_base)
    : id_(id), topo_(topo), routing_(routing), params_(params),
      nvcs_(params.vcMap.numVcs()), slab_(&slab), in_base_(in_vc_base),
      out_base_(out_vc_base)
{
    tenoc_assert(params_.numInjPorts >= 1 && params_.numEjPorts >= 1,
                 "router needs at least one injection/ejection port");
    tenoc_assert(in_base_ + numInputs() * nvcs_ <= slab.numInputVcs() &&
                     out_base_ + numOutputs() * nvcs_ <=
                         slab.numOutputVcs() &&
                     slab.depth() == params_.vcDepth,
                 "router view exceeds slab at node ", id_);
    initPorts();
}

void
Router::initPorts()
{
    const unsigned vcs = nvcs_;
    inputs_.reserve(numInputs());
    for (unsigned in = 0; in < numInputs(); ++in) {
        inputs_.emplace_back(*slab_, in_base_ + in * vcs, vcs,
                             params_.vcDepth);
    }
    outputs_.resize(numOutputs());
    in_links_.resize(NUM_DIRS);
    sa_input_arb_.assign(numInputs(), RoundRobinArbiter(vcs));
    va_words_ = (numInputs() * vcs + 63) / 64;
    vc_words_ = (vcs + 63) / 64;
    in_words_ = (numInputs() + 63) / 64;
    va_reqs_.resize(numOutputs() * va_words_);
    sa_out_reqs_.resize(numOutputs() * in_words_);
    sa_cand_.resize(va_words_);
    sa_req_.resize(vc_words_);
    sa_elig_.resize(vc_words_);
    sa_nominee_.resize(numInputs());
    for (unsigned o = 0; o < numOutputs(); ++o) {
        outputs_[o].vaArb.resize(numInputs() * vcs);
        outputs_[o].saArb.resize(numInputs());
        // Output VC credits start at zero (slab configure() default):
        // mesh outputs gain vcDepth credits when wired via
        // connectOutput(); ejection capacity is governed by the NI
        // sink, not credits.
    }
}

void
Router::connectOutput(Direction d, Channel<Flit> *flit_out,
                      Channel<Credit> *credit_in)
{
    tenoc_assert(d < NUM_DIRS, "invalid output direction");
    outputs_[d].flitOut = flit_out;
    outputs_[d].creditIn = credit_in;
    if (arrival_sched_ && credit_in)
        credit_in->setArrivalTarget(arrival_sched_, arrival_idx_,
                                    arrivalCreditBit(d));
    for (unsigned vc = 0; vc < nvcs_; ++vc)
        slab_->outCredits[ov(d, vc)] = params_.vcDepth;
}

void
Router::connectInput(Direction d, Channel<Flit> *flit_in,
                     Channel<Credit> *credit_out)
{
    tenoc_assert(d < NUM_DIRS, "invalid input direction");
    in_links_[d].flitIn = flit_in;
    in_links_[d].creditOut = credit_out;
    if (arrival_sched_ && flit_in)
        flit_in->setArrivalTarget(arrival_sched_, arrival_idx_,
                                  arrivalFlitBit(d));
}

void
Router::setArrival(ArrivalScheduler *sched, unsigned idx)
{
    arrival_sched_ = sched;
    arrival_idx_ = idx;
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (in_links_[d].flitIn)
            in_links_[d].flitIn->setArrivalTarget(sched, idx,
                                                  arrivalFlitBit(d));
        if (outputs_[d].creditIn)
            outputs_[d].creditIn->setArrivalTarget(sched, idx,
                                                   arrivalCreditBit(d));
    }
}

unsigned
Router::injFreeSlots(unsigned inj, unsigned vc) const
{
    return inputs_[NUM_DIRS + inj].freeSlots(vc);
}

void
Router::injectFlit(unsigned inj, Flit &&flit, Cycle now)
{
    inputs_[NUM_DIRS + inj].push(std::move(flit), now);
    if (active_set_)
        active_set_->mark(active_idx_);
}

bool
Router::connectivityAllows(unsigned in, unsigned out) const
{
    if (isInjection(in))
        return true; // injection reaches every output
    if (isEjection(out))
        return true;             // every input reaches ejection
    if (!params_.half) {
        // Full crossbar; U-turns are legal (non-minimal schemes such
        // as Valiant may reverse direction at their waypoint).
        return true;
    }
    // Half-router: through traffic must continue straight (Fig. 13).
    return out == opposite(static_cast<Direction>(in));
}

void
Router::readInputs(Cycle now)
{
    if (arrival_sched_) {
        // Event-driven drain: only ports whose pending bit fired have
        // a matured front entry; everything else is guaranteed to
        // deliver nothing, so skipping the receive() poll is exact.
        std::uint32_t bits = arrival_sched_->pending(arrival_idx_);
        if (bits == 0)
            return;
        std::uint32_t keep = 0;
        while (bits) {
            const auto b =
                static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            if (b < NUM_DIRS) {
                Channel<Flit> *ch = in_links_[b].flitIn;
                while (auto f = ch->receive(now))
                    inputs_[b].push(std::move(*f), now);
                // A stalled link keeps its matured backlog; the bit
                // stays pending so the router keeps polling (exactly
                // the cycles mark-on-send would have kept it awake).
                if (ch->earliestArrival() <= now)
                    keep |= arrivalFlitBit(b);
            } else {
                const unsigned d = b - NUM_DIRS;
                Channel<Credit> *ch = outputs_[d].creditIn;
                while (auto c = ch->receive(now))
                    ++slab_->outCredits[ov(d, c->vc)];
                if (ch->earliestArrival() <= now)
                    keep |= arrivalCreditBit(d);
            }
        }
        arrival_sched_->setPending(arrival_idx_, keep);
        return;
    }
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (in_links_[d].flitIn) {
            while (auto f = in_links_[d].flitIn->receive(now))
                inputs_[d].push(std::move(*f), now);
        }
        if (outputs_[d].creditIn) {
            while (auto c = outputs_[d].creditIn->receive(now))
                ++slab_->outCredits[ov(d, c->vc)];
        }
    }
}

Cycle
Router::packetAge(const Flit &f)
{
    return f.pkt->injectedCycle != INVALID_CYCLE
        ? f.pkt->injectedCycle : f.pkt->createdCycle;
}

unsigned
Router::nextEjectionPort()
{
    const unsigned p = ej_rr_ % params_.numEjPorts;
    ++ej_rr_;
    return NUM_DIRS + p;
}

void
Router::routeCompute(Cycle now)
{
    (void)now;
    const unsigned vcs = nvcs_;
    const unsigned n = numInputs() * vcs;
    // Contiguous-scan early-out: RC only acts on an idle VC with a
    // buffered head flit; with none present the stage is a no-op.
    const VcState *st = slab_->inState.data() + in_base_;
    const std::uint32_t *cnt = slab_->ringCount.data() + in_base_;
    bool eligible = false;
    for (unsigned i = 0; i < n; ++i) {
        if (st[i] == VcState::IDLE && cnt[i] != 0) {
            eligible = true;
            break;
        }
    }
    if (!eligible)
        return;
    for (unsigned in = 0; in < numInputs(); ++in) {
        for (unsigned vc = 0; vc < vcs; ++vc) {
            auto &port = inputs_[in];
            if (port.state(vc) != VcState::IDLE || port.empty(vc))
                continue;
            const Flit &head = port.front(vc);
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
            port.setOutPort(vc, out);
            // The packet is already hot here; caching its VC-class base
            // spares VC allocation the pointer chase entirely.
            port.setBaseVc(vc, params_.vcMap.baseVc(pkt));
            port.setState(vc, VcState::VC_ALLOC);
        }
    }
}

namespace
{

// Word-array helpers for the allocators.  A request set is an array of
// uint64 words, bit i = requestor i.  W is the word count when fixed at
// compile time — 1 for every router with at most 64 input VCs — or 0
// for the runtime count `nw`; the W = 1 forms reduce to plain
// single-mask operations.

template <unsigned W>
constexpr unsigned
wordsOf(unsigned nw)
{
    return W != 0 ? W : nw;
}

template <unsigned W>
void
setBit(std::uint64_t *words, unsigned i)
{
    if constexpr (W == 1)
        words[0] |= std::uint64_t{1} << i;
    else
        words[i >> 6] |= std::uint64_t{1} << (i & 63);
}

template <unsigned W>
void
clearBit(std::uint64_t *words, unsigned i)
{
    if constexpr (W == 1)
        words[0] &= ~(std::uint64_t{1} << i);
    else
        words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

template <unsigned W>
bool
anyBit(const std::uint64_t *words, unsigned nw)
{
    std::uint64_t live = 0;
    for (unsigned w = 0; w < wordsOf<W>(nw); ++w)
        live |= words[w];
    return live != 0;
}

/** Calls f(i) for every set bit i, ascending. */
template <unsigned W, typename F>
void
forEachBit(const std::uint64_t *words, unsigned nw, F &&f)
{
    for (unsigned w = 0; w < wordsOf<W>(nw); ++w) {
        for (std::uint64_t m = words[w]; m != 0; m &= m - 1)
            f(w * 64 + static_cast<unsigned>(std::countr_zero(m)));
    }
}

/** Round-robin winner among the set bits, or arb.size() if none. */
template <unsigned W>
unsigned
grant(const RoundRobinArbiter &arb, const std::uint64_t *words,
      unsigned nw)
{
    if constexpr (W == 1)
        return arb.grantMask(words[0]);
    else
        return arb.grantWords(words, nw);
}

/** Set bit with the smallest age(i), first in ascending order on ties;
 *  `none` if no bit is set. */
template <unsigned W, typename Age>
unsigned
oldest(const std::uint64_t *words, unsigned nw, unsigned none, Age &&age)
{
    unsigned win = none;
    Cycle best = INVALID_CYCLE;
    forEachBit<W>(words, nw, [&](unsigned i) {
        const Cycle a = age(i);
        if (win == none || a < best) {
            best = a;
            win = i;
        }
    });
    return win;
}

/**
 * Copies bits [pos, pos + len) of `src` (`src_words` words) into `dst`
 * (`nw` = ceil(len / 64) words), zero-filled above `len`.
 */
template <unsigned W>
void
extractBits(const std::uint64_t *src, unsigned src_words, unsigned pos,
            unsigned len, std::uint64_t *dst, unsigned nw)
{
    if constexpr (W == 1) {
        (void)src_words;
        (void)nw;
        const std::uint64_t mask = len >= 64
            ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
        dst[0] = (src[0] >> pos) & mask;
    } else {
        for (unsigned j = 0; j < nw; ++j) {
            const unsigned b = pos + 64 * j;
            const unsigned w = b >> 6;
            const unsigned sh = b & 63;
            std::uint64_t v = src[w] >> sh;
            if (sh != 0 && w + 1 < src_words)
                v |= src[w + 1] << (64 - sh);
            const unsigned left = len - 64 * j;
            if (left < 64)
                v &= (std::uint64_t{1} << left) - 1;
            dst[j] = v;
        }
    }
}

} // namespace

void
Router::vcAllocate(Cycle now)
{
    if (va_words_ == 1)
        vcAllocateWords<1>(now);
    else
        vcAllocateWords<0>(now);
}

void
Router::switchAllocate(Cycle now)
{
    if (va_words_ == 1)
        switchAllocateWords<1>(now);
    else
        switchAllocateWords<0>(now);
}

template <unsigned W>
void
Router::vcAllocateWords(Cycle now)
{
    const unsigned vcs = nvcs_;
    const unsigned n = numInputs() * vcs;
    const unsigned nw = wordsOf<W>(va_words_);
    // One contiguous pass over the state slab builds the per-output
    // requestor sets (bit i = input VC i wants this output); outputs
    // with no requestors grant nothing, which is bit-exact because an
    // arbiter only advances when a grant is accepted.
    const VcState *st = slab_->inState.data() + in_base_;
    const std::uint32_t *op = slab_->inOutPort.data() + in_base_;
    bool any = false;
    std::fill(va_reqs_.begin(), va_reqs_.end(), 0);
    for (unsigned i = 0; i < n; ++i) {
        if (st[i] == VcState::VC_ALLOC) {
            setBit<W>(va_reqs_.data() + op[i] * nw, i);
            any = true;
        }
    }
    if (!any)
        return;
    for (unsigned o = 0; o < numOutputs(); ++o) {
        std::uint64_t *reqs = va_reqs_.data() + o * nw;
        auto &out = outputs_[o];
        // Grant output VCs in round-robin requestor order until the
        // requestors run out.
        for (;;) {
            const unsigned idx = grant<W>(out.vaArb, reqs, nw);
            if (idx >= n)
                break;
            clearBit<W>(reqs, idx);
            const unsigned in = idx / vcs;
            const unsigned vc = idx % vcs;
            const unsigned base = inputs_[in].baseVc(vc);
            unsigned granted = vcs;
            for (unsigned l = 0; l < params_.vcMap.vcsPerClass; ++l) {
                const unsigned cand = base + l;
                if (!slab_->outOwned[ov(o, cand)]) {
                    granted = cand;
                    break;
                }
            }
            if (granted == vcs) {
                // No eligible VC free; the requestor retries next
                // cycle.  Other requestors may still want different
                // (protocol/routing class) VCs.
                continue;
            }
            const std::size_t g = ov(o, granted);
            slab_->outOwned[g] = 1;
            slab_->outOwnerIn[g] = in;
            slab_->outOwnerVc[g] = vc;
            inputs_[in].setOutVc(vc, granted);
            inputs_[in].setState(vc, VcState::ACTIVE);
            out.vaArb.accept(idx);
            if (tracer_) {
                const Packet &pkt = *inputs_[in].front(vc).pkt;
                if (tracer_->wants(pkt.id))
                    tracer_->instant("va", id_, pkt.id, now);
            }
        }
    }
}

template <unsigned W>
void
Router::switchAllocateWords(Cycle now)
{
    const unsigned vcs = nvcs_;
    const unsigned n = numInputs() * vcs;
    const unsigned cw = wordsOf<W>(va_words_); // all input VCs
    const unsigned vw = wordsOf<W>(vc_words_); // one input's VCs
    const unsigned iw = wordsOf<W>(in_words_); // input ports
    // Single-word sets live in registers; wider ones in scratch.
    std::uint64_t one_word[3] = {};
    std::uint64_t *cand = W == 1 ? &one_word[0] : sa_cand_.data();
    std::uint64_t *req = W == 1 ? &one_word[1] : sa_req_.data();
    std::uint64_t *elig = W == 1 ? &one_word[2] : sa_elig_.data();

    // One contiguous pass over the state slab finds every ACTIVE VC
    // with a buffered flit (bit i = input VC i); the expensive per-flit
    // eligibility checks below only touch those bits.
    const VcState *st = slab_->inState.data() + in_base_;
    const std::uint32_t *cnt = slab_->ringCount.data() + in_base_;
    std::fill_n(cand, cw, 0);
    for (unsigned i = 0; i < n; ++i) {
        if (st[i] == VcState::ACTIVE && cnt[i] != 0)
            setBit<W>(cand, i);
    }
    if (!anyBit<W>(cand, cw))
        return;

    // Input stage: each input port nominates one ready VC.
    auto &nominee = sa_nominee_;
    nominee.assign(numInputs(), vcs);
    std::fill(sa_out_reqs_.begin(), sa_out_reqs_.end(), 0);
    bool any_nominee = false;
    for (unsigned in = 0; in < numInputs(); ++in) {
        extractBits<W>(cand, cw, in * vcs, vcs, req, vw);
        if (!anyBit<W>(req, vw))
            continue;
        auto &port = inputs_[in];
        std::fill_n(elig, vw, 0);
        forEachBit<W>(req, vw, [&](unsigned vc) {
            const Flit &f = port.front(vc);
            // A flit spends `pipelineDepth` cycles in the router (it
            // departs no earlier than arrival + depth), giving the
            // paper's 5-cycle hops for 4-stage routers + 1-cycle
            // channels (Sec. III-B).
            if (f.enqueueCycle + params_.pipelineDepth > now)
                return; // still in the router pipeline
            const unsigned o = port.outPort(vc);
            if (isEjection(o)) {
                tenoc_assert(sink_, "no ejection sink attached");
                if (!sink_->ejectReady(o - NUM_DIRS))
                    return;
            } else if (slab_->outCredits[ov(o, port.outVc(vc))] == 0) {
                return;
            }
            setBit<W>(elig, vc);
        });
        if (!anyBit<W>(elig, vw))
            continue;
        const unsigned win = params_.agePriority
            ? oldest<W>(elig, vw, vcs,
                        [&](unsigned vc) {
                            return packetAge(port.front(vc));
                        })
            : grant<W>(sa_input_arb_[in], elig, vw);
        nominee[in] = win;
        setBit<W>(sa_out_reqs_.data() + port.outPort(win) * iw, in);
        any_nominee = true;
    }
    if (!any_nominee)
        return;

    // Output stage: one winner per output port.
    for (unsigned o = 0; o < numOutputs(); ++o) {
        const std::uint64_t *reqs = sa_out_reqs_.data() + o * iw;
        if (!anyBit<W>(reqs, iw))
            continue;
        const unsigned in = params_.agePriority
            ? oldest<W>(reqs, iw, numInputs(),
                        [&](unsigned c) {
                            return packetAge(inputs_[c].front(nominee[c]));
                        })
            : grant<W>(outputs_[o].saArb, reqs, iw);
        const unsigned vc = nominee[in];

        // Switch traversal.
        Flit flit = inputs_[in].pop(vc);
        const unsigned out_vc = inputs_[in].outVc(vc);
        const bool tail = flit.tail;
        if (!isInjection(in) && in_links_[in].creditOut)
            in_links_[in].creditOut->send(Credit{flit.vc}, now);
        if (tracer_ && flit.head && tracer_->wants(flit.pkt->id)) {
            tracer_->complete(isEjection(o) ? "eject_hop" : "hop", id_,
                              flit.pkt->id, flit.enqueueCycle, now);
        }
        flit.vc = out_vc;
        if (isEjection(o)) {
            sink_->ejectFlit(o - NUM_DIRS, std::move(flit), now);
        } else {
            auto &credits = slab_->outCredits[ov(o, out_vc)];
            tenoc_assert(credits > 0, "SA granted without credit");
            --credits;
            outputs_[o].flitOut->send(std::move(flit), now);
            ++link_flits_[o];
        }
        if (tail) {
            slab_->outOwned[ov(o, out_vc)] = 0;
            inputs_[in].setState(vc, VcState::IDLE);
        }
        ++flits_traversed_;
        if (net_traversed_)
            ++*net_traversed_;
        sa_input_arb_[in].accept(vc);
        outputs_[o].saArb.accept(in);
    }
}

bool
Router::empty() const
{
    for (const auto &p : inputs_)
        if (p.totalOccupancy() != 0)
            return false;
    return true;
}

bool
Router::couldWork() const
{
    if (arrival_sched_) {
        // Items merely in flight no longer hold the router awake: the
        // arrival scheduler wakes it on the delivery cycle, so only
        // buffered flits or matured, undrained arrivals count.
        return arrival_sched_->pending(arrival_idx_) != 0 || !empty();
    }
    if (!empty())
        return true;
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (in_links_[d].flitIn && !in_links_[d].flitIn->empty())
            return true;
        if (outputs_[d].creditIn && !outputs_[d].creditIn->empty())
            return true;
    }
    return false;
}

bool
Router::hasMaturedArrival(Cycle now) const
{
    // Clamp to the wheel's delivered-through horizon: an arrival due
    // at a cycle fire() has not yet been asked for is legitimately
    // still asleep, not a lost wake.
    if (arrival_sched_)
        now = std::min(now, arrival_sched_->firedThrough());
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (in_links_[d].flitIn &&
            in_links_[d].flitIn->earliestArrival() <= now)
            return true;
        if (outputs_[d].creditIn &&
            outputs_[d].creditIn->earliestArrival() <= now)
            return true;
    }
    return false;
}

std::uint64_t
Router::bufferedFlits() const
{
    std::uint64_t n = 0;
    for (const auto &p : inputs_)
        n += p.totalOccupancy();
    return n;
}

void
Router::save(SnapshotWriter &w) const
{
    w.tag("RTRS");
    for (const InputPort &in : inputs_)
        in.save(w);
    for (unsigned o = 0; o < numOutputs(); ++o) {
        for (unsigned vc = 0; vc < nvcs_; ++vc) {
            const std::size_t i = ov(o, vc);
            w.boolean(slab_->outOwned[i] != 0);
            w.u32(slab_->outOwnerIn[i]);
            w.u32(slab_->outOwnerVc[i]);
            w.u32(slab_->outCredits[i]);
        }
        w.u32(outputs_[o].vaArb.pointer());
        w.u32(outputs_[o].saArb.pointer());
    }
    for (const RoundRobinArbiter &arb : sa_input_arb_)
        w.u32(arb.pointer());
    w.u32(ej_rr_);
    w.u64(flits_traversed_);
    for (const std::uint64_t f : link_flits_)
        w.u64(f);
}

void
Router::restore(SnapshotReader &r)
{
    r.tag("RTRS");
    for (InputPort &in : inputs_) {
        in.restore(r);
        // The VC-class base cached by RC is derived state outside the
        // snapshot format; rebuild it for VCs awaiting allocation.
        for (unsigned vc = 0; vc < nvcs_; ++vc) {
            if (in.state(vc) == VcState::VC_ALLOC)
                in.setBaseVc(vc, params_.vcMap.baseVc(*in.front(vc).pkt));
        }
    }
    for (unsigned o = 0; o < numOutputs(); ++o) {
        for (unsigned vc = 0; vc < nvcs_; ++vc) {
            const std::size_t i = ov(o, vc);
            slab_->outOwned[i] = r.boolean() ? 1 : 0;
            slab_->outOwnerIn[i] = r.u32();
            slab_->outOwnerVc[i] = r.u32();
            slab_->outCredits[i] = r.u32();
        }
        outputs_[o].vaArb.setPointer(r.u32());
        outputs_[o].saArb.setPointer(r.u32());
    }
    for (RoundRobinArbiter &arb : sa_input_arb_)
        arb.setPointer(r.u32());
    ej_rr_ = r.u32();
    flits_traversed_ = r.u64();
    for (std::uint64_t &f : link_flits_)
        f = r.u64();
}

} // namespace tenoc
