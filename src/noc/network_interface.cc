/**
 * @file
 * NetworkInterface implementation.
 *
 * All hot containers (class queues, active packet slots, ejection
 * buffers) live in a NiSlabs arena — see slab.hh — so the phase
 * methods stream flat arrays instead of chasing deque blocks.
 */

#include "noc/network_interface.hh"

#include <algorithm>

#include "telemetry/trace_sink.hh"

namespace tenoc
{

namespace
{

/** `x + 1` wrapped to 0 at `n`: every round-robin pointer stays below
 *  its bound, so it wraps by compare. */
constexpr unsigned
wrapNext(unsigned x, unsigned n)
{
    return x + 1 == n ? 0 : x + 1;
}

} // namespace

NetworkInterface::NetworkInterface(NodeId node, Router &router,
                                   const VcMap &vc_map,
                                   const NiParams &params,
                                   NetStats &stats, NiSlabs &slab,
                                   ActiveSet &active,
                                   NetCounters &counters)
    : node_(node), router_(router), vc_map_(vc_map), params_(params),
      stats_(stats), active_(active), counters_(counters), nslab_(slab)
{
    ports_ = router_.params().numInjPorts;
    ej_ports_ = router_.params().numEjPorts;
    vcs_ = vc_map_.numVcs();
    tenoc_assert(node_ < nslab_.slotBase.size() &&
                     nslab_.classes() == vc_map_.protoClasses &&
                     nslab_.injCap() == params_.injQueueCap &&
                     nslab_.ejCap() == params_.ejBufferFlits,
                 "NI slab layout mismatch at node ", node_);
    qbase_ = std::size_t{node_} * vc_map_.protoClasses;
    sbase_ = nslab_.slotBase[node_];
    ebase_ = nslab_.ejPortBase[node_];
    lane_rr_.assign(vc_map_.protoClasses, 0);
    vc_rr_.assign(ports_, 0);
}

bool
NetworkInterface::canInject(int proto_class) const
{
    const auto cls =
        static_cast<unsigned>(proto_class) % vc_map_.protoClasses;
    return nslab_.qSize(qbase_ + cls) < params_.injQueueCap;
}

unsigned
NetworkInterface::injectSpace(int proto_class) const
{
    const auto cls =
        static_cast<unsigned>(proto_class) % vc_map_.protoClasses;
    const auto used = nslab_.qSize(qbase_ + cls);
    return used >= params_.injQueueCap
        ? 0 : static_cast<unsigned>(params_.injQueueCap - used);
}

void
NetworkInterface::enqueue(PacketPtr pkt, Cycle now)
{
    tenoc_assert(pkt->src == node_, "packet enqueued at wrong NI");
    tenoc_assert(pkt->dst != node_, "self-addressed packet");
    tenoc_assert(pkt->sizeFlits >= 1 && pkt->sizeFlits <= 0xffff,
                 "packet of ", pkt->sizeFlits, " flits at node ", node_);
    const auto cls =
        static_cast<unsigned>(pkt->protoClass) % vc_map_.protoClasses;
    tenoc_assert(nslab_.qSize(qbase_ + cls) < params_.injQueueCap,
                 "NI injection queue overflow at node ", node_);
    if (pkt->createdCycle == INVALID_CYCLE)
        pkt->createdCycle = now;
    // The packet's routing class is fixed until a router changes it,
    // so its base VC can be read once here instead of at every refill.
    const unsigned base = vc_map_.baseVc(*pkt);
    nslab_.qPush(qbase_ + cls, std::move(pkt), base);
    ++nslab_.pendingInject[node_];
    ++counters_.inflight;
    active_.mark(node_);
}

bool
NetworkInterface::refillOne(Cycle now)
{
    (void)now;
    const unsigned classes = vc_map_.protoClasses;
    const unsigned lanes = vc_map_.vcsPerClass;
    NiSlabs &s = nslab_;
    unsigned cls = class_rr_;
    for (unsigned i = 0; i < classes; ++i, cls = wrapNext(cls, classes)) {
        const std::size_t q = qbase_ + cls;
        if (s.qSize(q) == 0)
            continue;
        const unsigned base = s.qFrontBase(q);
        // Find a free (port, lane) slot for this packet's VC class,
        // round-robin over ports (Sec. IV-D) and lanes.
        unsigned p = port_rr_;
        for (unsigned pi = 0; pi < ports_; ++pi, p = wrapNext(p, ports_)) {
            unsigned lane = lane_rr_[cls];
            for (unsigned li = 0; li < lanes;
                 ++li, lane = wrapNext(lane, lanes)) {
                const unsigned vc = base + lane;
                const std::size_t slot = sbase_ + p * vcs_ + vc;
                if (s.actPkt[slot])
                    continue;
                s.actPkt[slot] = s.qPop(q);
                s.actNext[slot] = 0;
                class_rr_ = wrapNext(cls, classes);
                lane_rr_[cls] = wrapNext(lane, lanes);
                port_rr_ = wrapNext(p, ports_);
                return true;
            }
        }
    }
    return false;
}

void
NetworkInterface::injectPhase(Cycle now)
{
    NiSlabs &s = nslab_;
    if (s.pendingInject[node_] == 0)
        return; // nothing queued and no packet mid-injection
    while (refillOne(now)) {
    }
    for (unsigned p = 0; p < ports_; ++p) {
        // One flit per port per cycle (terminal bandwidth); pick the
        // next streamable VC round-robin.
        unsigned vc = vc_rr_[p];
        for (unsigned vi = 0; vi < vcs_; ++vi, vc = wrapNext(vc, vcs_)) {
            const std::size_t slot = sbase_ + p * vcs_ + vc;
            PacketPtr &pkt = s.actPkt[slot];
            if (!pkt || router_.injFreeSlots(p, vc) == 0)
                continue;
            const Flit flit = makeFlit(*pkt, s.actNext[slot], vc);
            if (flit.head && pkt->injectedCycle == INVALID_CYCLE) {
                pkt->injectedCycle = now;
                if (tracer_ && tracer_->wants(pkt->id)) {
                    tracer_->complete("inject_queue", node_, pkt->id,
                                      pkt->createdCycle, now);
                }
            }
            ++stats_.flitsInjected;
            stats_.nodeInjectedFlits[node_] += 1;
            ++counters_.flitsIn;
            router_.injectFlit(p, flit, now);
            ++s.actNext[slot];
            if (flit.tail) {
                ++stats_.packetsInjected;
                stats_.nodeInjectedBytes[node_] += pkt->sizeBytes;
                // The injected tail now owns the packet (see Flit),
                // which frees the slot.
                pkt.release();
                --s.pendingInject[node_];
            }
            vc_rr_[p] = wrapNext(vc, vcs_);
            break;
        }
    }
}

bool
NetworkInterface::ejectReady(unsigned ej_port) const
{
    return nslab_.ejSize(ebase_ + ej_port) < params_.ejBufferFlits;
}

void
NetworkInterface::ejectFlit(unsigned ej_port, const Flit &flit,
                            Cycle now)
{
    (void)now;
    tenoc_assert(nslab_.ejSize(ebase_ + ej_port) < params_.ejBufferFlits,
                 "ejection buffer overflow at node ", node_);
    nslab_.ejPush(ebase_ + ej_port, flit);
    ++nslab_.ejOccupancy[node_];
    active_.mark(node_);
}

void
NetworkInterface::drainPhase(Cycle now)
{
    NiSlabs &s = nslab_;
    if (s.ejOccupancy[node_] == 0)
        return;
    for (unsigned p = 0; p < ej_ports_; ++p) {
        const std::size_t ring = ebase_ + p;
        if (s.ejSize(ring) == 0)
            continue;
        const Flit &f = s.ejFront(ring);
        if (f.head && sink_ && !sink_->tryReserve(*f.pkt))
            continue; // node backpressure (e.g. MC queue full)
        const Flit flit = s.ejPop(ring);
        --s.ejOccupancy[node_];
        ++stats_.flitsEjected;
        stats_.nodeEjectedFlits[node_] += 1;
        ++counters_.flitsOut;
        if (flit.head)
            flit.pkt->headEjectedCycle = now;
        if (flit.tail) {
            // The tail hands its packet back (see Flit).
            PacketPtr pkt(flit.pkt);
            pkt->ejectedCycle = now;
            --counters_.inflight;
            ++stats_.packetsEjected;
            stats_.nodeEjectedBytes[node_] += pkt->sizeBytes;
            stats_.totalLatency.sample(
                static_cast<double>(now - pkt->createdCycle));
            stats_.totalLatencyHist.sample(
                static_cast<double>(now - pkt->createdCycle));
            if (pkt->injectedCycle != INVALID_CYCLE) {
                stats_.netLatency.sample(
                    static_cast<double>(now - pkt->injectedCycle));
                stats_.queueLatencyHist.sample(static_cast<double>(
                    pkt->injectedCycle - pkt->createdCycle));
                if (pkt->headEjectedCycle != INVALID_CYCLE) {
                    stats_.traversalLatencyHist.sample(
                        static_cast<double>(pkt->headEjectedCycle -
                                            pkt->injectedCycle));
                    stats_.serializationLatencyHist.sample(
                        static_cast<double>(now - pkt->headEjectedCycle));
                }
            }
            if (tracer_ && tracer_->wants(pkt->id)) {
                tracer_->complete(
                    "eject", node_, pkt->id,
                    pkt->headEjectedCycle != INVALID_CYCLE
                        ? pkt->headEjectedCycle : now,
                    now);
            }
            if (sink_)
                sink_->deliver(std::move(pkt), now);
        }
    }
}

bool
NetworkInterface::idle() const
{
    return nslab_.pendingInject[node_] == 0 &&
           nslab_.ejOccupancy[node_] == 0;
}

NiAuditInfo
NetworkInterface::audit() const
{
    const NiSlabs &s = nslab_;
    NiAuditInfo info;
    info.pendingInject = s.pendingInject[node_];
    info.ejOccupancyCounter = s.ejOccupancy[node_];
    info.ejCapacity = params_.ejBufferFlits;
    info.idle = idle();
    auto track = [&info](const Packet &pkt) {
        if (pkt.createdCycle != INVALID_CYCLE &&
            (info.oldestCreated == INVALID_CYCLE ||
             pkt.createdCycle < info.oldestCreated)) {
            info.oldestCreated = pkt.createdCycle;
        }
    };
    for (unsigned c = 0; c < vc_map_.protoClasses; ++c) {
        info.queuedPackets += s.qSize(qbase_ + c);
        unsigned pos = 0;
        s.forEachQueued(qbase_ + c, [&](const PacketPtr &pkt,
                                        unsigned base) {
            track(*pkt);
            const unsigned actual = vc_map_.baseVc(*pkt);
            if (base != actual && !info.staleBase)
                info.staleBase = {c, pos, base, actual};
            ++pos;
        });
    }
    for (unsigned p = 0; p < ports_; ++p) {
        for (unsigned vc = 0; vc < vcs_; ++vc) {
            const std::size_t slot = sbase_ + p * vcs_ + vc;
            if (!s.actPkt[slot])
                continue;
            ++info.activeSlots;
            track(*s.actPkt[slot]);
        }
    }
    for (unsigned p = 0; p < ej_ports_; ++p) {
        const std::size_t ring = ebase_ + p;
        info.ejFlits += s.ejSize(ring);
        info.maxEjPortOccupancy =
            std::max(info.maxEjPortOccupancy, s.ejSize(ring));
        s.forEachEjFlit(ring, [&](const Flit &flit) {
            if (flit.tail)
                ++info.ejTails;
            track(*flit.pkt);
        });
    }
    return info;
}

} // namespace tenoc
