/**
 * @file
 * MeshNetwork / DoubleNetwork implementation.
 */

#include "noc/mesh_network.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>

#include "common/log.hh"
#include "telemetry/json.hh"
#include "telemetry/telemetry.hh"

namespace tenoc
{

namespace
{

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

std::string
meshParamsError(const MeshNetworkParams &params, bool sliced)
{
    const auto why = [](auto &&...args) {
        return detail::formatMessage(args...);
    };
    const TopologyParams &t = params.topo;

    // The topology.
    if (t.rows < 2 || t.cols < 2) {
        return why("a mesh needs at least 2x2 nodes (got noc.rows=",
                   t.rows, " x noc.cols=", t.cols, ")");
    }
    // A 64-bit product: the 32-bit one wraps.
    const std::uint64_t nodes = std::uint64_t{t.rows} * t.cols;
    if (nodes > INVALID_NODE) {
        return why("a ", t.rows, "x", t.cols, " mesh has ", nodes,
                   " nodes, more than the ", INVALID_NODE,
                   " that 32-bit node ids number");
    }
    if (t.numMcs < 1)
        return why("noc.mcs=0: the chip needs at least one MC");
    if (t.numMcs >= nodes) {
        return why("noc.mcs=", t.numMcs, " must leave at least one"
                   " compute node on a ", t.rows, "x", t.cols, " mesh (",
                   nodes, " nodes total)");
    }
    switch (t.placement) {
      case McPlacement::TOP_BOTTOM:
        if ((t.numMcs + 1) / 2 > t.cols) {
            return why("top/bottom placement fits at most ", 2 * t.cols,
                       " MCs on a ", t.cols, "-column mesh (noc.mcs=",
                       t.numMcs, ")");
        }
        break;
      case McPlacement::CHECKERBOARD:
        if (t.numMcs > nodes / 2) {
            return why("checkerboard placement has only ", nodes / 2,
                       " half-router cells for noc.mcs=", t.numMcs);
        }
        break;
      case McPlacement::CUSTOM:
        if (t.customMcs.size() != t.numMcs) {
            return why("custom placement lists ", t.customMcs.size(),
                       " MC coordinates but numMcs=", t.numMcs);
        }
        break;
    }
    std::set<std::pair<unsigned, unsigned>> seen;
    for (const auto &[x, y] : mcCoordinates(t)) {
        if (x >= t.cols || y >= t.rows) {
            return why("MC placement (", x, ",", y, ") is off the ",
                       t.cols, "x", t.rows, " mesh");
        }
        if (!seen.insert({x, y}).second)
            return why("duplicate MC placement at (", x, ",", y, ")");
        // Sec. IV-A: MCs sit at half-routers so that no full-to-full
        // route is ever required.
        if (t.checkerboardRouters && Topology::parity(x, y) != 1) {
            return why("MC at (", x, ",", y, ") is not on a half-router"
                       " cell; checkerboard routing would be"
                       " infeasible");
        }
    }

    // The routers.
    if (params.protoClasses == 0)
        return why("noc.protoClasses must be >= 1");
    if (params.vcsPerClass == 0) {
        return why("noc.vcsPerClass must be >= 1: a network with 0"
                   " virtual channels cannot carry traffic");
    }
    if (params.vcDepth == 0) {
        return why("noc.vcDepth must be >= 1: 0-depth VC buffers can"
                   " never accept a flit");
    }
    if (params.vcDepth > VcSlabs::MAX_DEPTH) {
        return why("noc.vcDepth=", params.vcDepth, " exceeds ",
                   VcSlabs::MAX_DEPTH, ", the deepest VC ring a router"
                   " record's 16-bit head and count fields hold");
    }
    if (params.flitBytes == 0)
        return why("noc.flitBytes must be >= 1");
    if (params.pipelineDepth == 0 || params.halfPipelineDepth == 0) {
        return why("noc.pipelineDepth and noc.halfPipelineDepth must be"
                   " >= 1 (a flit spends at least one cycle in a"
                   " router)");
    }
    if (params.mcInjPorts == 0 || params.mcEjPorts == 0) {
        return why("MC routers need at least one injection and one"
                   " ejection port (got noc.mcInjPorts=",
                   params.mcInjPorts, " noc.mcEjPorts=",
                   params.mcEjPorts, ")");
    }
    // MC routers have the most ports: NUM_DIRS + mcInjPorts inputs (a
    // compute router has one injection port) and NUM_DIRS + mcEjPorts
    // outputs.
    const unsigned route_classes = routeClassesOf(t);
    const std::uint64_t inputs = NUM_DIRS + std::uint64_t{params.mcInjPorts};
    const std::uint64_t vcs = std::uint64_t{params.protoClasses} *
        route_classes * params.vcsPerClass;
    if (inputs * vcs > Router::MAX_INPUT_VCS) {
        return why("a router takes at most ", Router::MAX_INPUT_VCS,
                   " input VCs, but each MC router would have (",
                   NUM_DIRS, " + noc.mcInjPorts=", params.mcInjPorts,
                   ") inputs x (", params.protoClasses, " protocol x ",
                   route_classes, " routing classes x noc.vcsPerClass=",
                   params.vcsPerClass, ") VCs = ", inputs * vcs,
                   " input VCs");
    }
    const std::uint64_t outputs = NUM_DIRS + std::uint64_t{params.mcEjPorts};
    if (outputs > Router::MAX_OUTPUTS) {
        return why("a router takes at most ", Router::MAX_OUTPUTS,
                   " outputs, but each MC router would have ", NUM_DIRS,
                   " + noc.mcEjPorts=", params.mcEjPorts, " = ", outputs);
    }

    // The NIs and the invariant audit.
    if (params.ni.injQueueCap == 0 || params.ni.ejBufferFlits == 0) {
        return why("NI queue capacities must be >= 1 (injQueueCap=",
                   params.ni.injQueueCap, " ejBufferFlits=",
                   params.ni.ejBufferFlits, ")");
    }
    if (params.validate && params.validateInterval == 0) {
        return why("noc.validateInterval must be >= 1 when noc.validate"
                   " is on");
    }

    // The channel-sliced double network (Sec. IV-C).
    if (sliced && (params.flitBytes < 2 || params.flitBytes % 2 != 0)) {
        return why("a channel-sliced double network halves the flit"
                   " width, so noc.flitBytes must be an even value >= 2"
                   " (got ", params.flitBytes, ")");
    }
    if (sliced && params.protoClasses != 2) {
        return why("a channel-sliced double network carries requests"
                   " and replies on its two slices, so noc.protoClasses"
                   " must be 2 (got ", params.protoClasses, ")");
    }
    return {};
}

void
validateMeshNetworkParams(const MeshNetworkParams &params)
{
    if (const std::string why = meshParamsError(params, false);
        !why.empty())
        tenoc_fatal("invalid network config: ", why);
}

MeshNetworkParams
meshParamsFromConfig(const Config &cfg, MeshNetworkParams m)
{
    m.topo.rows = cfg.getUint32("noc.rows", m.topo.rows);
    m.topo.cols = cfg.getUint32("noc.cols", m.topo.cols);
    m.topo.numMcs = cfg.getUint32("noc.mcs", m.topo.numMcs);
    if (cfg.has("noc.placement")) {
        const std::string pl = cfg.getString("noc.placement");
        if (pl == placementName(McPlacement::TOP_BOTTOM))
            m.topo.placement = McPlacement::TOP_BOTTOM;
        else if (pl == placementName(McPlacement::CHECKERBOARD))
            m.topo.placement = McPlacement::CHECKERBOARD;
        else
            tenoc_fatal("unknown placement '", pl, "'");
    }
    m.topo.checkerboardRouters =
        cfg.getBool("noc.halfRouters", m.topo.checkerboardRouters);
    m.flitBytes = cfg.getUint32("noc.flitBytes", m.flitBytes);
    m.vcsPerClass = cfg.getUint32("noc.vcsPerClass", m.vcsPerClass);
    m.vcDepth = cfg.getUint32("noc.vcDepth", m.vcDepth);
    m.pipelineDepth = cfg.getUint32("noc.pipelineDepth", m.pipelineDepth);
    m.halfPipelineDepth =
        cfg.getUint32("noc.halfPipelineDepth", m.halfPipelineDepth);
    m.mcInjPorts = cfg.getUint32("noc.mcInjPorts", m.mcInjPorts);
    m.mcEjPorts = cfg.getUint32("noc.mcEjPorts", m.mcEjPorts);

    // Hardening knobs (noc/invariants.hh).
    m.validate = cfg.getBool("noc.validate", m.validate);
    m.validateInterval =
        cfg.getUint("noc.validateInterval", m.validateInterval);
    m.watchdogWindow = cfg.getUint("noc.watchdogWindow", m.watchdogWindow);
    m.maxPacketAge = cfg.getUint("noc.maxPacketAge", m.maxPacketAge);
    m.watchdogSnapshotPath =
        cfg.getString("noc.watchdogSnapshotPath", m.watchdogSnapshotPath);
    return m;
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
      routing_(topo_),
      rng_(params.seed), router_active_(topo_.numNodes()),
      ni_active_(topo_.numNodes()),
      checker_(params.vcDepth, counters_, router_active_, ni_active_)
{
    if (shared_ids)
        pkt_ids_ = shared_ids;
    validateMeshNetworkParams(params_);
    if (validateForcedByEnv())
        params_.validate = true;

    vc_map_.protoClasses = params_.protoClasses;
    vc_map_.routeClasses = routing_.numRouteClasses();
    vc_map_.vcsPerClass = params_.vcsPerClass;

    if (shared_stats) {
        stats_ = shared_stats;
    } else {
        owned_stats_ = std::make_unique<NetStats>(topo_.numNodes());
        stats_ = owned_stats_.get();
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
    links_.configure(&slabs_);

    routers_.reserve(topo_.numNodes());
    std::size_t in_base = 0;
    std::size_t out_base = 0;
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        const Router::Params &rp = node_params[n];
        routers_.push_back(std::make_unique<Router>(
            n, topo_, routing_, rp, slabs_, in_base, out_base,
            router_active_, counters_));
        in_base += (NUM_DIRS + rp.numInjPorts) * vcs;
        out_base += (NUM_DIRS + rp.numEjPorts) * vcs;
        checker_.addRouter(routers_[n].get());
    }

    // One link per direction per edge, carrying flits one way and
    // their credits back.
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        for (unsigned d = 0; d < NUM_DIRS; ++d) {
            const auto dir = static_cast<Direction>(d);
            const NodeId nb = topo_.neighbor(n, dir);
            if (nb != INVALID_NODE)
                routers_[n]->connect(dir, *routers_[nb], links_);
        }
    }
    checker_.setLinks(&links_);

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
            n, *routers_[n], vc_map_, params_.ni, *stats_, ni_slabs_,
            ni_active_, counters_));
        routers_[n]->setEjectionSink(nis_[n].get());
        checker_.addNi(nis_[n].get());
    }
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
    routing_.initPacket(*pkt, rng_);
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
    lap(&PhaseProfile::bookkeepingNs);
    // Deposit this cycle's link arrivals first: each due flit lands in
    // its receiver's VC ring and marks the receiver, each due credit
    // lands in its output VC, before any phase reads the masks.
    links_.fire(now);
    lap(&PhaseProfile::readInputsNs);
    // Each phase visits only the marked components, in ascending
    // order.  An unmarked component has no buffered work, and ticking
    // it would change nothing (arbiters only advance on accept()), so
    // skipping it is exact.  Masks are live: a mark made by one phase
    // (NI injectFlit -> router, router ejectFlit -> NI) is seen by the
    // later phases of the same cycle, and a fresh same-phase mark is
    // always a no-op visit.
    // The arena's contiguous pending counters gate the phase call: an
    // NI with nothing queued or mid-injection is a guaranteed no-op
    // (injectPhase early-outs on the same counter), so the sweep
    // touches one cache-resident word per idle NI.
    ni_active_.forEach([&](unsigned n) {
        if (ni_slabs_.pendingInject[n] != 0)
            nis_[n]->injectPhase(now);
    });
    lap(&PhaseProfile::injectNs);
    // One pass over the routers runs each router's RC, VA and SA.
    // Routers only interact through 1-cycle links, so nothing a
    // router's stage writes is visible to any other router until a
    // later cycle's fire(), and this order is bit-exact with running
    // each stage across all routers in turn.  Each stage's test of its
    // own work mask subsumes a buffered-flits guard.
    router_active_.forEach([&](unsigned n) {
        Router &r = *routers_[n];
        r.routeCompute(now);
        r.vcAllocate(now);
        r.switchAllocate(now);
    });
    lap(&PhaseProfile::computeNs);
    ni_active_.forEach([&](unsigned n) {
        if (ni_slabs_.ejOccupancy[n] != 0)
            nis_[n]->drainPhase(now);
    });
    lap(&PhaseProfile::drainNs);

    // Retire components that ran dry: a retired router/NI is re-marked
    // by the event that next gives it work (the wheel at a flit's
    // arrival cycle, injection, ejection), never silently forgotten.
    router_active_.retireIf(
        [&](unsigned n) { return routers_[n]->empty(); });
    ni_active_.retireIf([&](unsigned n) { return nis_[n]->idle(); });
    postCycle(now);
    lap(&PhaseProfile::bookkeepingNs);
}

void
MeshNetwork::postCycle(Cycle now)
{
    if (params_.validate && now >= next_check_) {
        checker_.check(now);
        next_check_ = now + params_.validateInterval;
    }
    if (params_.watchdogWindow != 0) {
        // O(1) per cycle: any flit movement — injection into a router,
        // a switch traversal, or ejection-buffer drain — is progress.
        const std::uint64_t progress = counters_.progress();
        if (counters_.inflight == 0 || progress != wd_last_progress_ ||
            now < wd_last_change_) {
            wd_last_progress_ = progress;
            wd_last_change_ = now;
        } else if (now - wd_last_change_ >= params_.watchdogWindow) {
            fireWatchdog(now, "no_progress");
        }
    }
    if (params_.maxPacketAge != 0 && counters_.inflight != 0 &&
        (now & 1023) == 0) {
        // Livelock scan: cheap enough on a 1024-cycle stride.
        const Cycle oldest = checker_.oldestCreated();
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
    report.inflight = counters_.inflight;
    const Cycle oldest = checker_.oldestCreated();
    report.oldestAge = oldest == INVALID_CYCLE ? 0 : now - oldest;
    report.reason = reason;
    report.snapshotJson = diagnosticReport(now);
    if (wd_handler_) {
        wd_handler_(report);
        // Re-arm so an observing handler sees one report per stuck
        // window instead of one per cycle.
        wd_last_change_ = now;
        wd_last_progress_ = counters_.progress();
        return;
    }
    std::ofstream out(params_.watchdogSnapshotPath);
    // Flush now: tenoc_fatal exits without unwinding, so `out` is never
    // destroyed and anything left in its buffer would be lost.
    if (out)
        out << report.snapshotJson << "\n" << std::flush;
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
        // (NetCounters::traversed): sampling is O(1) instead of
        // re-summing every router per interval.
        sampler->addCounter(prefix + "flits_traversed", [this] {
            return static_cast<double>(counters_.traversed);
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
    doc.set("packets_in_flight", counters_.inflight);
    doc.set("flits_in_network", counters_.flitsIn - counters_.flitsOut);
    const Cycle oldest = checker_.oldestCreated();
    doc.set("oldest_packet_age",
            oldest == INVALID_CYCLE
                ? JsonValue()
                : JsonValue(static_cast<std::uint64_t>(now - oldest)));

    JsonValue topo = JsonValue::makeObject();
    topo.set("rows", static_cast<std::uint64_t>(topo_.rows()));
    topo.set("cols", static_cast<std::uint64_t>(topo_.cols()));
    doc.set("topology", std::move(topo));

    // Live invariant audit: a deadlock caused by state corruption
    // (e.g. a leaked credit) names itself here.
    JsonValue violations = JsonValue::makeArray();
    for (const Violation &v : checker_.audit()) {
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
        if (r->empty())
            continue;
        JsonValue rj = JsonValue::makeObject();
        rj.set("id", static_cast<std::uint64_t>(r->id()));
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
    // queues, router buffers, links and ejection buffers.
    return counters_.inflight == 0;
}

MeshNetworkParams
slicedParams(const MeshNetworkParams &base)
{
    if (const std::string why = meshParamsError(base, true); !why.empty())
        tenoc_fatal("invalid network config: ", why);
    MeshNetworkParams slice = base;
    slice.flitBytes = base.flitBytes / 2;
    slice.protoClasses = 1; // dedicated networks need no protocol VCs
    // Keep each slice's total buffer *storage* equal to the unsliced
    // network by doubling the lanes per class (flits are half-width).
    // See DESIGN.md: our flit-level wormhole router needs the extra
    // lanes to reach BookSim-like utilization on half-width worms.
    slice.vcsPerClass = base.vcsPerClass * 2;
    return slice;
}

DoubleNetwork::DoubleNetwork(const MeshNetworkParams &base)
{
    const MeshNetworkParams slice = slicedParams(base);

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

} // namespace tenoc
