/**
 * @file
 * MeshNetwork / DoubleNetwork implementation.
 */

#include "noc/mesh_network.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "common/snapshot.hh"
#include "telemetry/json.hh"
#include "telemetry/telemetry.hh"

namespace tenoc
{

namespace
{

/** TENOC_ARRIVAL_SLEEP=0/1 overrides MeshNetworkParams::arrivalSleep
 *  everywhere (the equivalence tests cross both settings); -1 = unset. */
int
arrivalSleepEnvOverride()
{
    const char *env = std::getenv("TENOC_ARRIVAL_SLEEP");
    if (!env || !*env)
        return -1;
    return std::string(env) == "0" ? 0 : 1;
}

/** Monotonic nanosecond stamp for the --profile phase breakdown. */
std::uint64_t
profileNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
validateMeshNetworkParams(const MeshNetworkParams &params)
{
    if (params.protoClasses == 0) {
        tenoc_fatal("invalid network config: protoClasses must be >= 1"
                    " (request/reply protocol isolation needs at least"
                    " one class)");
    }
    if (params.vcsPerClass == 0) {
        tenoc_fatal("invalid network config: vcsPerClass must be >= 1 —"
                    " a network with 0 virtual channels cannot carry"
                    " traffic");
    }
    if (params.vcDepth == 0) {
        tenoc_fatal("invalid network config: vcDepth must be >= 1 —"
                    " 0-depth VC buffers can never accept a flit");
    }
    if (params.flitBytes == 0) {
        tenoc_fatal("invalid network config: flitBytes must be >= 1"
                    " (channel width in bytes)");
    }
    if (params.pipelineDepth == 0 || params.halfPipelineDepth == 0) {
        tenoc_fatal("invalid network config: pipelineDepth and"
                    " halfPipelineDepth must be >= 1 (a flit spends at"
                    " least one cycle in a router)");
    }
    if (params.channelLatency == 0) {
        tenoc_fatal("invalid network config: channelLatency must be"
                    " >= 1 cycle");
    }
    if (params.mcInjPorts == 0 || params.mcEjPorts == 0) {
        tenoc_fatal("invalid network config: MC routers need at least"
                    " one injection and one ejection port (got inj=",
                    params.mcInjPorts, " ej=", params.mcEjPorts, ")");
    }
    if (params.ni.injQueueCap == 0 || params.ni.ejBufferFlits == 0) {
        tenoc_fatal("invalid network config: NI queue capacities must"
                    " be >= 1 (injQueueCap=", params.ni.injQueueCap,
                    " ejBufferFlits=", params.ni.ejBufferFlits, ")");
    }
    if (params.validate && params.validateInterval == 0) {
        tenoc_fatal("invalid network config: validateInterval must be"
                    " >= 1 when validate is enabled");
    }
}

double
NetStats::acceptedBytesPerCyclePerNode() const
{
    if (cycles == 0 || nodeEjectedBytes.empty())
        return 0.0;
    std::uint64_t total = 0;
    for (auto b : nodeEjectedBytes)
        total += b;
    return static_cast<double>(total) /
        (static_cast<double>(cycles) * nodeEjectedBytes.size());
}

double
NetStats::injectionRate(const std::vector<NodeId> &nodes) const
{
    if (cycles == 0 || nodes.empty())
        return 0.0;
    std::uint64_t total = 0;
    for (NodeId n : nodes)
        total += nodeInjectedFlits[n];
    return static_cast<double>(total) /
        (static_cast<double>(cycles) * nodes.size());
}

void
NetStats::registerStats(StatGroup &group)
{
    // Scalars are plain struct fields (some are adjusted in place,
    // e.g. the double network's cycle correction), so export them
    // lazily rather than mirroring them into Counter objects.
    group.addValue("cycles",
                   [this] { return static_cast<double>(cycles); });
    group.addValue("packets_injected", [this] {
        return static_cast<double>(packetsInjected);
    });
    group.addValue("packets_ejected", [this] {
        return static_cast<double>(packetsEjected);
    });
    group.addValue("flits_injected", [this] {
        return static_cast<double>(flitsInjected);
    });
    group.addValue("flits_ejected", [this] {
        return static_cast<double>(flitsEjected);
    });
    group.addValue("accepted_bytes_per_cycle_per_node",
                   [this] { return acceptedBytesPerCyclePerNode(); });
    group.add(&totalLatency);
    group.add(&netLatency);
    group.add(&totalLatencyHist);
    group.add(&queueLatencyHist);
    group.add(&traversalLatencyHist);
    group.add(&serializationLatencyHist);
}

MeshNetwork::MeshNetwork(const MeshNetworkParams &params,
                         NetStats *shared_stats, std::uint64_t *shared_ids)
    : params_(params), topo_(params.topo),
      routing_(makeRouting(params.routing, topo_)),
      rng_(params.seed)
{
    if (shared_ids)
        pkt_ids_ = shared_ids;
    validateMeshNetworkParams(params_);
    if (validateForcedByEnv())
        params_.validate = true;
    if (const int arr = arrivalSleepEnvOverride(); arr >= 0)
        params_.arrivalSleep = arr != 0;
    if (params_.validate) {
        // Packets are pooled thread-locally; arm double-release
        // detection on this thread's pool (left on afterwards — purely
        // additional checking, never behavioural).
        packetPool().setValidate(true);
    }

    vc_map_.protoClasses = params_.protoClasses;
    vc_map_.routeClasses = routing_->numRouteClasses();
    vc_map_.vcsPerClass = params_.vcsPerClass;

    checker_ = std::make_unique<InvariantChecker>(params_.vcDepth);
    checker_->setCounters(&inflight_, &net_flits_in_, &net_flits_out_);
    if (params_.faults.any()) {
        faults_ = std::make_unique<FaultEngine>(params_.faults,
                                                topo_.numNodes());
    }

    if (shared_stats) {
        stats_ = shared_stats;
    } else {
        owned_stats_ = std::make_unique<NetStats>(topo_.numNodes());
        stats_ = owned_stats_.get();
    }

    router_active_.resize(topo_.numNodes());
    ni_active_.resize(topo_.numNodes());
    if (params_.arrivalSleep) {
        // All channels share one latency, so the wheel is sized once;
        // configure before the routers so setArrival can hand each its
        // scheduler slot ahead of channel wiring.
        arrival_.configure(topo_.numNodes(), params_.channelLatency,
                           &router_active_);
    }

    // Routers.  Geometry pre-pass first: per-node parameters decide
    // how many input/output VCs each router contributes, the slab
    // arena is sized once, and every router views a contiguous
    // node-ordered range of it (see slab.hh).
    std::vector<Router::Params> node_params;
    node_params.reserve(topo_.numNodes());
    std::size_t in_vcs = 0;
    std::size_t out_vcs = 0;
    const unsigned vcs = vc_map_.numVcs();
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        Router::Params rp;
        rp.vcMap = vc_map_;
        rp.vcDepth = params_.vcDepth;
        rp.agePriority = params_.agePriority;
        rp.half = topo_.isHalfRouter(n);
        rp.pipelineDepth =
            rp.half ? params_.halfPipelineDepth : params_.pipelineDepth;
        if (topo_.isMc(n)) {
            rp.numInjPorts = params_.mcInjPorts;
            rp.numEjPorts = params_.mcEjPorts;
        }
        in_vcs += (NUM_DIRS + rp.numInjPorts) * vcs;
        out_vcs += (NUM_DIRS + rp.numEjPorts) * vcs;
        node_params.push_back(std::move(rp));
    }
    slabs_.configure(in_vcs, out_vcs, params_.vcDepth);
    slabs_.setValidate(params_.validate);

    routers_.reserve(topo_.numNodes());
    std::size_t in_base = 0;
    std::size_t out_base = 0;
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        const Router::Params &rp = node_params[n];
        routers_.push_back(std::make_unique<Router>(
            n, topo_, *routing_, rp, slabs_, in_base, out_base));
        in_base += (NUM_DIRS + rp.numInjPorts) * vcs;
        out_base += (NUM_DIRS + rp.numEjPorts) * vcs;
        routers_[n]->setActivity(&router_active_, n);
        if (params_.arrivalSleep)
            routers_[n]->setArrival(&arrival_, n);
        routers_[n]->setTraversalCounter(&flits_traversed_total_);
        checker_->addRouter(routers_[n].get());
        if (faults_)
            faults_->registerRouter(n, routers_[n].get());
    }

    // Channels between adjacent routers (one flit + one credit channel
    // per direction per edge), by value in node-then-direction wiring
    // order — the order MeshNetwork::cycle streams them.
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        for (unsigned d = 0; d < NUM_DIRS; ++d) {
            const auto dir = static_cast<Direction>(d);
            const NodeId nb = topo_.neighbor(n, dir);
            if (nb == INVALID_NODE)
                continue;
            Channel<Flit> &fc =
                flit_channels_.emplace_back(params_.channelLatency);
            Channel<Credit> &cc =
                credit_channels_.emplace_back(params_.channelLatency);
            routers_[n]->connectOutput(dir, &fc, &cc);
            routers_[nb]->connectInput(opposite(dir), &fc, &cc);
            // A send wakes whichever router will eventually receive:
            // flits travel n -> nb, credits return nb -> n.
            fc.setWakeTarget(&router_active_, nb);
            cc.setWakeTarget(&router_active_, n);
            checker_->addLink(routers_[n].get(), d, &fc, &cc,
                              routers_[nb].get(),
                              static_cast<unsigned>(opposite(dir)));
            if (faults_)
                faults_->registerLink(n, d, &fc);
        }
    }

    // Network interfaces, viewing one shared SoA arena (class queues,
    // active-packet slots, ejection rings; see NiSlabs) sized from the
    // same geometry pre-pass as the router slabs.
    std::vector<unsigned> inj_ports(topo_.numNodes());
    std::vector<unsigned> ej_ports(topo_.numNodes());
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        inj_ports[n] = node_params[n].numInjPorts;
        ej_ports[n] = node_params[n].numEjPorts;
    }
    ni_slabs_.configure(inj_ports, vcs, params_.protoClasses,
                        params_.ni.injQueueCap, ej_ports,
                        params_.ni.ejBufferFlits);
    nis_.reserve(topo_.numNodes());
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        nis_.push_back(std::make_unique<NetworkInterface>(
            n, *routers_[n], vc_map_, params_.ni, *stats_,
            &ni_slabs_, n));
        routers_[n]->setEjectionSink(nis_[n].get());
        nis_[n]->setActivity(&ni_active_, n);
        nis_[n]->setInFlightCounter(&inflight_);
        nis_[n]->setNetFlitCounters(&net_flits_in_, &net_flits_out_);
        checker_->addNi(nis_[n].get());
    }
    if (params_.idleSkip)
        checker_->setActivity(&router_active_, &ni_active_);
}

bool
MeshNetwork::canInject(NodeId n, int proto_class) const
{
    return nis_[n]->canInject(proto_class);
}

unsigned
MeshNetwork::injectSpace(NodeId n, int proto_class) const
{
    return nis_[n]->injectSpace(proto_class);
}

void
MeshNetwork::inject(PacketPtr pkt, Cycle now)
{
    tenoc_assert(pkt->src < topo_.numNodes() &&
                 pkt->dst < topo_.numNodes(), "invalid endpoints");
    pkt->id = (*pkt_ids_)++;
    routing_->initPacket(*pkt, rng_);
    nis_[pkt->src]->enqueue(std::move(pkt), now);
}

void
MeshNetwork::setSink(NodeId n, PacketSink *sink)
{
    nis_[n]->setSink(sink);
}

void
MeshNetwork::cycle(Cycle now)
{
    PhaseProfile *prof = profile_;
    std::uint64_t t0 = prof ? profileNowNs() : 0;
    const auto lap = [&](std::uint64_t PhaseProfile::*slot) {
        if (!prof)
            return;
        const std::uint64_t t1 = profileNowNs();
        prof->*slot += t1 - t0;
        t0 = t1;
    };
    if (prof)
        ++prof->cycles;
    ++stats_->cycles;
    if (faults_)
        faults_->tick(now);
    // Deliver this cycle's channel arrivals first: matured wheel
    // entries set their receiver's pending-port bits and mark it
    // active before any phase reads the masks.
    const bool arr = arrival_.configured();
    if (arr)
        arrival_.fire(now);
    // Hoisted fault gate: routerFrozen() is consulted per router tick
    // only while a freeze is actually active; otherwise the fault hook
    // costs this single pointer test per cycle.
    const FaultEngine *fe =
        (faults_ && faults_->anyFrozen()) ? faults_.get() : nullptr;
    // Idle-skip visits only the marked components, in ascending order,
    // so the tick order is the full sweep's.  An idle component
    // performs no state change when ticked (arbiters only advance on
    // accept()), so skipping it is bit-exact.  The reference full tick
    // (idleSkip off) is the every-bit-set case: every index is visited
    // and nothing retires.  Masks are live: a mark made by one phase
    // (NI injectFlit -> router, router ejectFlit -> NI) is seen by the
    // later phases of the same cycle, and a fresh same-phase mark is
    // always a no-op visit.
    const unsigned nodes = topo_.numNodes();
    const auto visit = [&](const ActiveSet &set, auto &&f) {
        if (params_.idleSkip) {
            set.forEach(f);
        } else {
            for (unsigned n = 0; n < nodes; ++n)
                f(n);
        }
    };
    // A frozen router (ROUTER_FREEZE fault) is skipped entirely: its
    // buffers, arbiters and attached channel endpoints hold still.
    const auto routerPass = [&](auto &&tick) {
        visit(router_active_, [&](unsigned n) {
            if (!fe || !fe->routerFrozen(n))
                tick(*routers_[n]);
        });
    };
    lap(&PhaseProfile::bookkeepingNs);

    routerPass([&](Router &r) { r.readInputs(now); });
    lap(&PhaseProfile::readInputsNs);
    // The arena's contiguous pending counters gate the phase call: an
    // NI with nothing queued or mid-injection is a guaranteed no-op
    // (injectPhase early-outs on the same counter), so the sweep
    // touches one cache-resident word per idle NI.
    visit(ni_active_, [&](unsigned n) {
        if (ni_slabs_.pendingInject[n] != 0)
            nis_[n]->injectPhase(now);
    });
    lap(&PhaseProfile::injectNs);
    // One pass over the routers runs each router's RC, VA and SA.
    // Routers only interact through >= 1-cycle channels, so nothing a
    // router's stage writes is visible to any other router until next
    // cycle's readInputs, and this order is bit-exact with running
    // each stage across all routers in turn.  Each stage's test
    // of its own work mask subsumes a buffered-flits guard, and a
    // router marked mid-pass by a channel send has its new flit still
    // in flight, so its stages no-op if the pass reaches it.
    routerPass([&](Router &r) {
        r.routeCompute(now);
        r.vcAllocate(now);
        r.switchAllocate(now);
    });
    lap(&PhaseProfile::computeNs);
    visit(ni_active_, [&](unsigned n) {
        if (ni_slabs_.ejOccupancy[n] != 0)
            nis_[n]->drainPhase(now);
    });
    lap(&PhaseProfile::drainNs);

    if (params_.idleSkip) {
        // Retire components that ran dry: a retired router/NI is
        // re-marked by the event that next gives it work (channel
        // send, injection, ejection — or, under arrivalSleep, the wheel
        // at the arrival cycle), never silently forgotten.  A frozen
        // router retires only if it truly has no work (couldWork covers
        // its buffers and pending arrivals whether or not it is being
        // ticked).
        router_active_.retireIf(
            [&](unsigned n) { return !routers_[n]->couldWork(); });
        ni_active_.retireIf([&](unsigned n) { return nis_[n]->idle(); });
    }
    postCycle(now);
    lap(&PhaseProfile::bookkeepingNs);
}

void
MeshNetwork::postCycle(Cycle now)
{
    if (params_.validate && now >= next_check_) {
        checker_->check(now);
        next_check_ = now + params_.validateInterval;
    }
    if (params_.watchdogWindow != 0) {
        // O(1) per cycle: any flit movement — injection into a router,
        // a switch traversal, or ejection-buffer drain — is progress.
        const std::uint64_t progress =
            net_flits_in_ + net_flits_out_ + flits_traversed_total_;
        if (inflight_ == 0 || progress != wd_last_progress_ ||
            now < wd_last_change_) {
            wd_last_progress_ = progress;
            wd_last_change_ = now;
        } else if (now - wd_last_change_ >= params_.watchdogWindow) {
            fireWatchdog(now, "no_progress");
        }
    }
    if (params_.maxPacketAge != 0 && inflight_ != 0 &&
        (now & 1023) == 0) {
        // Livelock scan: cheap enough on a 1024-cycle stride.
        const Cycle oldest = checker_->oldestCreated();
        if (oldest != INVALID_CYCLE &&
            now - oldest > params_.maxPacketAge) {
            fireWatchdog(now, "packet_age");
        }
    }
}

void
MeshNetwork::fireWatchdog(Cycle now, const char *reason)
{
    WatchdogReport report;
    report.now = now;
    report.window = params_.watchdogWindow;
    report.inflight = inflight_;
    const Cycle oldest = checker_->oldestCreated();
    report.oldestAge = oldest == INVALID_CYCLE ? 0 : now - oldest;
    report.reason = reason;
    report.snapshotJson = diagnosticReport(now);
    if (wd_handler_) {
        wd_handler_(report);
        // Re-arm so an observing handler sees one report per stuck
        // window instead of one per cycle.
        wd_last_change_ = now;
        wd_last_progress_ =
            net_flits_in_ + net_flits_out_ + flits_traversed_total_;
        return;
    }
    std::ofstream out(params_.watchdogSnapshotPath);
    if (out)
        out << report.snapshotJson << "\n";
    tenoc_fatal("network watchdog: ", reason, " at cycle ", now, " — ",
                report.inflight, " packet(s) in flight, oldest is ",
                report.oldestAge, " cycles old; diagnostic snapshot ",
                out ? "written to " : "could not be written to ",
                params_.watchdogSnapshotPath);
}

void
MeshNetwork::attachTelemetry(telemetry::TelemetryHub &hub)
{
    attachTelemetryPrefixed(hub, "");
}

void
MeshNetwork::attachTelemetryPrefixed(telemetry::TelemetryHub &hub,
                                     const std::string &prefix)
{
    if (auto *sampler = hub.sampler()) {
        const std::size_t nodes = routers_.size();
        sampler->addGaugeVector(
            prefix + "router_occ", nodes, [this](std::size_t n) {
                return static_cast<double>(routers_[n]->bufferedFlits());
            });
        sampler->addCounterVector(
            prefix + "link_flits", nodes * NUM_DIRS,
            [this](std::size_t i) {
                return static_cast<double>(
                    routers_[i / NUM_DIRS]->linkFlits(i % NUM_DIRS));
            });
        // Network-level running counter kept by the routers themselves
        // (Router::setTraversalCounter): sampling is O(1) instead of
        // re-summing every router per interval.
        sampler->addCounter(prefix + "flits_traversed", [this] {
            return static_cast<double>(flits_traversed_total_);
        });
    }
    if (auto *tracer = hub.tracer()) {
        for (auto &r : routers_)
            r->setTracer(tracer);
        for (auto &ni : nis_)
            ni->setTracer(tracer);
    }
}

namespace
{

const char *
vcStateName(VcState s)
{
    switch (s) {
      case VcState::IDLE:
        return "IDLE";
      case VcState::ROUTING:
        return "ROUTING";
      case VcState::VC_ALLOC:
        return "VC_ALLOC";
      case VcState::ACTIVE:
        return "ACTIVE";
    }
    return "?";
}

} // namespace

telemetry::JsonValue
MeshNetwork::diagnosticSnapshot(Cycle now) const
{
    using telemetry::JsonValue;
    JsonValue doc = JsonValue::makeObject();
    doc.set("schema", "tenoc-watchdog-v1");
    doc.set("cycle", static_cast<std::uint64_t>(now));
    doc.set("packets_in_flight", inflight_);
    doc.set("flits_in_network", net_flits_in_ - net_flits_out_);
    const Cycle oldest = checker_->oldestCreated();
    doc.set("oldest_packet_age",
            oldest == INVALID_CYCLE
                ? JsonValue()
                : JsonValue(static_cast<std::uint64_t>(now - oldest)));

    JsonValue topo = JsonValue::makeObject();
    topo.set("rows", static_cast<std::uint64_t>(topo_.rows()));
    topo.set("cols", static_cast<std::uint64_t>(topo_.cols()));
    doc.set("topology", std::move(topo));

    if (faults_) {
        const FaultStats &fs = faults_->stats();
        JsonValue faults = JsonValue::makeObject();
        faults.set("link_stalls", fs.linkStalls);
        faults.set("router_freezes", fs.routerFreezes);
        faults.set("credit_drops", fs.creditDrops);
        doc.set("faults", std::move(faults));
    }

    // Live invariant audit: a deadlock caused by state corruption
    // (e.g. a leaked credit) names itself here.
    JsonValue violations = JsonValue::makeArray();
    for (const Violation &v : checker_->audit(now)) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("kind", violationKindName(v.kind));
        entry.set("message", v.message);
        violations.push(std::move(entry));
    }
    doc.set("violations", std::move(violations));

    // Non-idle routers: per-VC pipeline state, credits, and wait-for
    // edges (an ACTIVE VC whose granted output VC has no credits is
    // blocked on its downstream neighbor — the cycles in this edge
    // list are the deadlock).
    JsonValue routers = JsonValue::makeArray();
    JsonValue wait_for = JsonValue::makeArray();
    for (const auto &r : routers_) {
        if (!r->couldWork())
            continue;
        JsonValue rj = JsonValue::makeObject();
        rj.set("id", static_cast<std::uint64_t>(r->id()));
        if (faults_)
            rj.set("frozen", faults_->routerFrozen(r->id()));
        rj.set("buffered_flits", r->bufferedFlits());
        JsonValue vcs = JsonValue::makeArray();
        for (unsigned in = 0; in < r->numInputs(); ++in) {
            for (unsigned vc = 0; vc < r->numVcs(); ++vc) {
                const VcState state = r->vcState(in, vc);
                const auto occ = r->vcOccupancy(in, vc);
                if (state == VcState::IDLE && occ == 0)
                    continue;
                JsonValue vj = JsonValue::makeObject();
                vj.set("in", static_cast<std::uint64_t>(in));
                vj.set("vc", static_cast<std::uint64_t>(vc));
                vj.set("state", vcStateName(state));
                vj.set("occupancy", static_cast<std::uint64_t>(occ));
                if (state == VcState::VC_ALLOC ||
                    state == VcState::ACTIVE) {
                    vj.set("out_port", static_cast<std::uint64_t>(
                                           r->vcOutPort(in, vc)));
                }
                if (state == VcState::ACTIVE) {
                    const unsigned out_port = r->vcOutPort(in, vc);
                    const unsigned out_vc = r->vcOutVc(in, vc);
                    vj.set("out_vc",
                           static_cast<std::uint64_t>(out_vc));
                    if (out_port < NUM_DIRS &&
                        r->outputCredits(out_port, out_vc) == 0) {
                        const NodeId nb = topo_.neighbor(
                            r->id(), static_cast<Direction>(out_port));
                        JsonValue edge = JsonValue::makeObject();
                        edge.set("router",
                                 static_cast<std::uint64_t>(r->id()));
                        edge.set("in", static_cast<std::uint64_t>(in));
                        edge.set("vc", static_cast<std::uint64_t>(vc));
                        edge.set("out_port",
                                 static_cast<std::uint64_t>(out_port));
                        edge.set("out_vc",
                                 static_cast<std::uint64_t>(out_vc));
                        edge.set("waits_on",
                                 static_cast<std::uint64_t>(nb));
                        wait_for.push(std::move(edge));
                    }
                }
                if (const Flit *front = r->vcFront(in, vc)) {
                    vj.set("front_pkt", front->pkt->id);
                    if (front->pkt->createdCycle != INVALID_CYCLE) {
                        vj.set("front_age",
                               static_cast<std::uint64_t>(
                                   now - front->pkt->createdCycle));
                    }
                }
                vcs.push(std::move(vj));
            }
        }
        rj.set("vcs", std::move(vcs));
        JsonValue credits = JsonValue::makeArray();
        for (unsigned d = 0; d < NUM_DIRS; ++d) {
            if (!r->outputConnected(d))
                continue;
            JsonValue cj = JsonValue::makeArray();
            for (unsigned vc = 0; vc < r->numVcs(); ++vc)
                cj.push(static_cast<std::uint64_t>(
                    r->outputCredits(d, vc)));
            JsonValue dj = JsonValue::makeObject();
            dj.set("dir", static_cast<std::uint64_t>(d));
            dj.set("credits", std::move(cj));
            credits.push(std::move(dj));
        }
        rj.set("output_credits", std::move(credits));
        routers.push(std::move(rj));
    }
    doc.set("routers", std::move(routers));
    doc.set("wait_for", std::move(wait_for));

    JsonValue nis = JsonValue::makeArray();
    for (const auto &ni : nis_) {
        const NiAuditInfo info = ni->audit();
        if (info.idle)
            continue;
        JsonValue nj = JsonValue::makeObject();
        nj.set("node", static_cast<std::uint64_t>(ni->node()));
        nj.set("queued_packets",
               static_cast<std::uint64_t>(info.queuedPackets));
        nj.set("active_slots",
               static_cast<std::uint64_t>(info.activeSlots));
        nj.set("ejection_flits",
               static_cast<std::uint64_t>(info.ejFlits));
        if (info.oldestCreated != INVALID_CYCLE) {
            nj.set("oldest_packet_age",
                   static_cast<std::uint64_t>(
                       now - info.oldestCreated));
        }
        nis.push(std::move(nj));
    }
    doc.set("nis", std::move(nis));
    return doc;
}

std::string
MeshNetwork::diagnosticReport(Cycle now) const
{
    return diagnosticSnapshot(now).toString();
}

bool
MeshNetwork::drained() const
{
    // Every packet is counted in at NI::enqueue and out when its tail
    // flit leaves the ejection buffer, so one counter covers injection
    // queues, router buffers, flit channels and ejection buffers.
    return inflight_ == 0;
}

DoubleNetwork::DoubleNetwork(const MeshNetworkParams &base)
{
    MeshNetworkParams slice = base;
    if (base.flitBytes < 2 || base.flitBytes % 2 != 0) {
        tenoc_fatal("invalid network config: a channel-sliced double"
                    " network halves the flit width, so flitBytes must"
                    " be an even value >= 2 (got ", base.flitBytes,
                    ")");
    }
    slice.flitBytes = base.flitBytes / 2;
    slice.protoClasses = 1; // dedicated networks need no protocol VCs
    // Keep each slice's total buffer *storage* equal to the unsliced
    // network by doubling the lanes per class (flits are half-width).
    // See DESIGN.md: our flit-level wormhole router needs the extra
    // lanes to reach BookSim-like utilization on half-width worms.
    slice.vcsPerClass = base.vcsPerClass * 2;

    stats_ = std::make_unique<NetStats>(
        base.topo.rows * base.topo.cols);

    // MC terminal ports are direction-specific: requests only *eject*
    // at MCs (request slice), replies only *inject* (reply slice), so
    // the multi-port upgrade applies to one slice each (Sec. IV-D).
    MeshNetworkParams req_slice = slice;
    req_slice.mcInjPorts = 1;
    request_ = std::make_unique<MeshNetwork>(req_slice, stats_.get(),
                                             &next_pkt_id_);

    MeshNetworkParams rep_slice = slice;
    rep_slice.mcEjPorts = 1;
    rep_slice.seed = base.seed + 0x9e3779b9ULL;
    reply_ = std::make_unique<MeshNetwork>(rep_slice, stats_.get(),
                                           &next_pkt_id_);
}

unsigned
DoubleNetwork::flitBytes() const
{
    return request_->flitBytes();
}

MeshNetwork &
DoubleNetwork::subnetFor(int proto_class) const
{
    return proto_class == 0 ? *request_ : *reply_;
}

bool
DoubleNetwork::canInject(NodeId n, int proto_class) const
{
    return subnetFor(proto_class).canInject(n, proto_class);
}

unsigned
DoubleNetwork::injectSpace(NodeId n, int proto_class) const
{
    return subnetFor(proto_class).injectSpace(n, proto_class);
}

void
DoubleNetwork::inject(PacketPtr pkt, Cycle now)
{
    subnetFor(pkt->protoClass).inject(std::move(pkt), now);
}

void
DoubleNetwork::setSink(NodeId n, PacketSink *sink)
{
    request_->setSink(n, sink);
    reply_->setSink(n, sink);
}

void
DoubleNetwork::cycle(Cycle now)
{
    // Each slice bumps the shared cycle counter; correct for the
    // double count so `cycles` tracks wall interconnect cycles.
    request_->cycle(now);
    reply_->cycle(now);
    --stats_->cycles;
}

bool
DoubleNetwork::drained() const
{
    return request_->drained() && reply_->drained();
}

std::string
DoubleNetwork::diagnosticReport(Cycle now) const
{
    telemetry::JsonValue doc = telemetry::JsonValue::makeObject();
    doc.set("schema", "tenoc-watchdog-double-v1");
    doc.set("request", request_->diagnosticSnapshot(now));
    doc.set("reply", reply_->diagnosticSnapshot(now));
    return doc.toString();
}

void
DoubleNetwork::attachTelemetry(telemetry::TelemetryHub &hub)
{
    request_->attachTelemetryPrefixed(hub, "req_");
    reply_->attachTelemetryPrefixed(hub, "rep_");
}

std::unique_ptr<Network>
makeMeshNetwork(const MeshNetworkParams &params, bool sliced)
{
    if (sliced)
        return std::make_unique<DoubleNetwork>(params);
    return std::make_unique<MeshNetwork>(params);
}

// --- checkpoint/restore ---

void
Network::save(SnapshotWriter &w) const
{
    (void)w;
    tenoc_fatal("checkpointing is not supported for this network kind "
                "(ideal networks model no restorable state)");
}

void
Network::restore(SnapshotReader &r)
{
    (void)r;
    tenoc_fatal("checkpoint restore is not supported for this network "
                "kind");
}

void
NetStats::save(SnapshotWriter &w) const
{
    w.tag("NSTA");
    w.u64(cycles);
    w.u64(packetsInjected);
    w.u64(packetsEjected);
    w.u64(flitsInjected);
    w.u64(flitsEjected);
    saveStat(w, totalLatency);
    saveStat(w, netLatency);
    saveStat(w, totalLatencyHist);
    saveStat(w, queueLatencyHist);
    saveStat(w, traversalLatencyHist);
    saveStat(w, serializationLatencyHist);
    saveU64Vector(w, nodeInjectedFlits);
    saveU64Vector(w, nodeEjectedFlits);
    saveU64Vector(w, nodeInjectedBytes);
    saveU64Vector(w, nodeEjectedBytes);
}

void
NetStats::restore(SnapshotReader &r)
{
    r.tag("NSTA");
    cycles = r.u64();
    packetsInjected = r.u64();
    packetsEjected = r.u64();
    flitsInjected = r.u64();
    flitsEjected = r.u64();
    restoreStat(r, totalLatency);
    restoreStat(r, netLatency);
    restoreStat(r, totalLatencyHist);
    restoreStat(r, queueLatencyHist);
    restoreStat(r, traversalLatencyHist);
    restoreStat(r, serializationLatencyHist);
    restoreU64Vector(r, nodeInjectedFlits);
    restoreU64Vector(r, nodeEjectedFlits);
    restoreU64Vector(r, nodeInjectedBytes);
    restoreU64Vector(r, nodeEjectedBytes);
}

void
MeshNetwork::save(SnapshotWriter &w) const
{
    if (faults_)
        tenoc_fatal("cannot checkpoint a fault-injected network: the "
                    "fault engine's schedule position is not serialized");
    w.tag("MESH");
    // Structural fingerprint: enough to reject a restore into a
    // differently shaped network with a clear message instead of a
    // byte-offset panic deep inside a component.
    w.u32(topo_.numNodes());
    w.u32(params_.flitBytes);
    w.u32(params_.protoClasses);
    w.u32(params_.vcsPerClass);
    w.u32(params_.vcDepth);
    w.u32(params_.mcInjPorts);
    w.u32(params_.mcEjPorts);
    w.u64(flit_channels_.size());
    w.u64(credit_channels_.size());

    const auto st = rng_.state();
    for (const std::uint64_t s : st)
        w.u64(s);
    w.u64(own_pkt_ids_);
    w.u64(inflight_);
    w.u64(flits_traversed_total_);
    w.u64(net_flits_in_);
    w.u64(net_flits_out_);
    // Monitor bookkeeping (validation schedule, watchdog progress
    // marks) is deliberately NOT serialized: it is derived scheduling
    // state, and keeping it out of the blob makes snapshots identical
    // across monitor configurations (validate on/off, watchdog
    // window), so a warm-up checkpoint can feed differently-monitored
    // downstream runs bit-for-bit.  The arrival wheel is derived state
    // too: at a cycle boundary every matured arrival has been drained
    // (fire marks its receiver and readInputs consumes the backlog in
    // the same cycle; stalling faults cannot be checkpointed), so the
    // pending words are provably all-zero and the wheel holds only
    // future entries, rebuilt on restore from the channels' recorded
    // arrival cycles.
    if (arrival_.configured()) {
        for (NodeId n = 0; n < topo_.numNodes(); ++n) {
            tenoc_assert(arrival_.pending(n) == 0,
                         "arrival pending word nonzero at checkpoint"
                         " (router ", n, ")");
        }
    }
    saveU64Vector(w, router_active_.words());
    saveU64Vector(w, ni_active_.words());
    for (const auto &router : routers_)
        router->save(w);
    for (const auto &ni : nis_)
        ni->save(w);
    for (const auto &ch : flit_channels_) {
        ch.save(w, [](SnapshotWriter &sw, const Flit &f) {
            saveFlit(sw, f);
        });
    }
    for (const auto &ch : credit_channels_) {
        ch.save(w, [](SnapshotWriter &sw, const Credit &c) {
            sw.u32(c.vc);
        });
    }
    if (stats_ == owned_stats_.get())
        stats_->save(w);
    w.tag("MEND");
}

void
MeshNetwork::restore(SnapshotReader &r)
{
    tenoc_assert(!faults_, "restore into a fault-injected network");
    r.tag("MESH");
    const auto expect = [](std::uint64_t got, std::uint64_t want,
                           const char *what) {
        if (got != want)
            tenoc_fatal("snapshot structural mismatch: ", what,
                        " is ", got, " in the snapshot but ", want,
                        " in this network");
    };
    expect(r.u32(), topo_.numNodes(), "node count");
    expect(r.u32(), params_.flitBytes, "flit width");
    expect(r.u32(), params_.protoClasses, "protocol classes");
    expect(r.u32(), params_.vcsPerClass, "VCs per class");
    expect(r.u32(), params_.vcDepth, "VC depth");
    expect(r.u32(), params_.mcInjPorts, "MC injection ports");
    expect(r.u32(), params_.mcEjPorts, "MC ejection ports");
    expect(r.u64(), flit_channels_.size(), "flit channel count");
    expect(r.u64(), credit_channels_.size(), "credit channel count");

    std::array<std::uint64_t, 4> st;
    for (std::uint64_t &s : st)
        s = r.u64();
    rng_.setState(st);
    own_pkt_ids_ = r.u64();
    inflight_ = r.u64();
    flits_traversed_total_ = r.u64();
    net_flits_in_ = r.u64();
    net_flits_out_ = r.u64();
    // Re-arm the monitors instead of restoring them: the next
    // postCycle() validates (read-only) and re-baselines the watchdog
    // (progress != 0 whenever flits are in flight, so it can never
    // fire spuriously off the zeroed marks).
    next_check_ = 0;
    wd_last_progress_ = 0;
    wd_last_change_ = 0;
    std::vector<std::uint64_t> words(router_active_.words().size());
    restoreU64Vector(r, words);
    router_active_.setWords(words);
    words.assign(ni_active_.words().size(), 0);
    restoreU64Vector(r, words);
    ni_active_.setWords(words);
    for (const auto &router : routers_)
        router->restore(r);
    for (const auto &ni : nis_)
        ni->restore(r);
    for (auto &ch : flit_channels_) {
        ch.restore(r, [](SnapshotReader &sr) { return loadFlit(sr); });
    }
    for (auto &ch : credit_channels_) {
        ch.restore(r, [](SnapshotReader &sr) {
            Credit c;
            c.vc = sr.u32();
            return c;
        });
    }
    // The arrival wheel is derived state: reset it and re-post one
    // wake per restored in-flight item.  The reset wheel is unprimed,
    // so its first fire() does a full sweep — arbitrary resume cycles
    // are safe.  Without a scheduler the fallback marks the receiver
    // of every non-empty channel, which also heals a snapshot taken
    // under arrivalSleep into a wake-on-send network (the saving run's
    // active words do not cover receivers asleep until an arrival).
    if (arrival_.configured()) {
        arrival_.configure(topo_.numNodes(), params_.channelLatency,
                           &router_active_);
    }
    for (auto &ch : flit_channels_)
        ch.reschedulePending();
    for (auto &ch : credit_channels_)
        ch.reschedulePending();
    if (stats_ == owned_stats_.get())
        stats_->restore(r);
    r.tag("MEND");
}

void
DoubleNetwork::save(SnapshotWriter &w) const
{
    w.tag("DNET");
    w.u64(next_pkt_id_);
    stats_->save(w);
    request_->save(w);
    reply_->save(w);
}

void
DoubleNetwork::restore(SnapshotReader &r)
{
    r.tag("DNET");
    next_pkt_id_ = r.u64();
    stats_->restore(r);
    request_->restore(r);
    reply_->restore(r);
}

} // namespace tenoc
