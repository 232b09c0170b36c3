/**
 * @file
 * Differential-testing harness implementation.
 */

#include "noc/golden/diff.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/log.hh"
#include "noc/golden/golden.hh"
#include "noc/routing.hh"

namespace tenoc
{

namespace
{

/** Count of odd-parity (half-router) cells on a rows x cols mesh. */
unsigned
oddParityCells(unsigned rows, unsigned cols)
{
    return rows * cols / 2;
}

/**
 * Independent checkerboard routability predicate (Sec. IV-B): the only
 * pairs CR cannot route are full-router to full-router with both
 * coordinate offsets odd — then both DOR turn nodes and every minimal-
 * quadrant waypoint's second-leg turn land on half-routers.
 */
bool
crUnroutable(const Topology &topo, NodeId src, NodeId dst)
{
    if (topo.isHalfRouter(src) || topo.isHalfRouter(dst))
        return false;
    const unsigned dx = topo.xOf(src) > topo.xOf(dst)
        ? topo.xOf(src) - topo.xOf(dst)
        : topo.xOf(dst) - topo.xOf(src);
    const unsigned dy = topo.yOf(src) > topo.yOf(dst)
        ? topo.yOf(src) - topo.yOf(dst)
        : topo.yOf(dst) - topo.yOf(src);
    return dx % 2 == 1 && dy % 2 == 1;
}

bool
routablePair(const DiffConfig &cfg, const Topology &topo, NodeId src,
             NodeId dst)
{
    if (src == dst)
        return false;
    if (cfg.checkerboard)
        return !crUnroutable(topo, src, dst);
    return true;
}

/** Caps a violation list so one broken config can't flood the log. */
constexpr std::size_t MAX_VIOLATIONS = 64;

bool
full(const std::vector<std::string> &violations)
{
    return violations.size() >= MAX_VIOLATIONS;
}

// ---------------------------------------------------------------------
// Oracle 1: routing sweep
// ---------------------------------------------------------------------

void
routingSweepOracle(const DiffConfig &cfg,
                   std::vector<std::string> &violations)
{
    const MeshNetworkParams np = cfg.toNetParams();
    Topology topo(np.topo);
    const Routing algo(topo);
    GoldenModel golden(topo, np);
    Rng rng(deriveStreamSeed(cfg.seed, 0x5eedULL));

    std::vector<NodeId> expect, actual;
    for (NodeId src = 0; src < topo.numNodes(); ++src) {
        for (NodeId dst = 0; dst < topo.numNodes(); ++dst) {
            if (src == dst || full(violations))
                continue;
            if (cfg.checkerboard && crUnroutable(topo, src, dst)) {
                // The implementation must agree these are impossible:
                // an empty waypoint set (initPacket would panic, which
                // the death tests cover; here we introspect instead).
                if (!algo.twoPhaseCandidates(src, dst).empty()) {
                    violations.push_back(
                        "routing sweep: CR offers waypoints for the "
                        "unroutable full-full odd/odd pair " +
                        std::to_string(src) + " -> " +
                        std::to_string(dst));
                }
                continue;
            }

            Packet pkt;
            pkt.src = src;
            pkt.dst = dst;
            algo.initPacket(pkt, rng);

            // Walk the real per-hop routing function.
            actual.clear();
            actual.push_back(src);
            NodeId cur = src;
            bool walk_ok = true;
            for (unsigned steps = 0;; ++steps) {
                if (steps > 4 * topo.numNodes()) {
                    violations.push_back(
                        "routing sweep: livelocked walk " +
                        std::to_string(src) + " -> " +
                        std::to_string(dst));
                    walk_ok = false;
                    break;
                }
                const unsigned port = algo.route(cur, pkt);
                if (port == PORT_EJECT)
                    break;
                const NodeId nxt =
                    topo.neighbor(cur, static_cast<Direction>(port));
                if (nxt == INVALID_NODE) {
                    violations.push_back(
                        "routing sweep: walk " + std::to_string(src) +
                        " -> " + std::to_string(dst) +
                        " stepped off the mesh");
                    walk_ok = false;
                    break;
                }
                actual.push_back(nxt);
                cur = nxt;
            }
            if (!walk_ok)
                continue;

            golden.reconstructRoute(pkt, expect);
            if (actual != expect) {
                violations.push_back(
                    "routing sweep: realized route for " +
                    std::to_string(src) + " -> " + std::to_string(dst) +
                    " diverges from the golden reconstruction");
            }
            golden.checkRoute(pkt, actual, violations);
        }
    }
}

// ---------------------------------------------------------------------
// Shared harness machinery
// ---------------------------------------------------------------------

/** Sink feeding every delivery to the shadow. */
class ShadowSink : public PacketSink
{
  public:
    ShadowSink(GoldenShadow &shadow, NodeId node)
        : shadow_(shadow), node_(node)
    {}

    bool tryReserve(const Packet &) override { return true; }
    void
    deliver(PacketPtr pkt, Cycle now) override
    {
        shadow_.onDeliver(*pkt, node_, now);
    }

  private:
    GoldenShadow &shadow_;
    NodeId node_;
};

/** Sink that absorbs deliveries (stats accounting is unaffected). */
class NullSink : public PacketSink
{
  public:
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

/** One generated packet of the deterministic traffic schedule. */
struct GenPacket
{
    NodeId src;
    NodeId dst;
    int protoClass;
    unsigned sizeFlits;
    Cycle created;
};

/**
 * Deterministic traffic schedule generator: each node owns a derived
 * RNG stream, so the schedule depends only on (cfg, node) — never on
 * network state — making it byte-identical across the baseline,
 * rerun, toggle, and sliced-equivalence executions.
 */
class TrafficSchedule
{
  public:
    TrafficSchedule(const DiffConfig &cfg, const Topology &topo)
        : cfg_(cfg), topo_(topo)
    {
        for (NodeId n = 0; n < topo.numNodes(); ++n)
            rngs_.emplace_back(deriveStreamSeed(cfg.seed, n));
    }

    /** Appends this cycle's new packets (in node order) to `out`. */
    void
    generate(Cycle now, std::vector<GenPacket> &out)
    {
        for (NodeId n = 0; n < topo_.numNodes(); ++n) {
            Rng &rng = rngs_[n];
            if (rng.nextBool(cfg_.rate)) {
                GenPacket g;
                g.src = n;
                g.created = now;
                if (topo_.isMc(n)) {
                    // MC -> compute "reply" burst (4 flits, class 1).
                    g.dst = topo_.computeNodes()[rng.nextRange(
                        topo_.computeNodes().size())];
                    g.protoClass = 1;
                    g.sizeFlits = 4;
                } else {
                    // compute -> MC "request" (1 flit, class 0).
                    g.dst = topo_.mcNodes()[rng.nextRange(
                        topo_.mcNodes().size())];
                    g.protoClass = 0;
                    g.sizeFlits = 1;
                }
                out.push_back(g);
            }
        }
    }

  private:
    const DiffConfig &cfg_;
    const Topology &topo_;
    std::vector<Rng> rngs_;
};

/** Everything that must be bit-identical between equivalent runs. */
struct RunSignature
{
    Cycle endCycle = 0;
    std::uint64_t packetsInjected = 0, packetsEjected = 0;
    std::uint64_t flitsInjected = 0, flitsEjected = 0;
    std::uint64_t latCount = 0;
    double latSum = 0.0, latMin = 0.0, latMax = 0.0;
    std::vector<std::uint64_t> nodeInjFlits, nodeEjFlits;
    std::vector<std::uint64_t> nodeInjBytes, nodeEjBytes;
    std::vector<std::uint64_t> histBuckets;
};

RunSignature
captureSignature(const NetStats &stats, Cycle end_cycle)
{
    RunSignature s;
    s.endCycle = end_cycle;
    s.packetsInjected = stats.packetsInjected;
    s.packetsEjected = stats.packetsEjected;
    s.flitsInjected = stats.flitsInjected;
    s.flitsEjected = stats.flitsEjected;
    s.latCount = stats.totalLatency.count();
    s.latSum = stats.totalLatency.sum();
    s.latMin = stats.totalLatency.min();
    s.latMax = stats.totalLatency.max();
    s.nodeInjFlits = stats.nodeInjectedFlits;
    s.nodeEjFlits = stats.nodeEjectedFlits;
    s.nodeInjBytes = stats.nodeInjectedBytes;
    s.nodeEjBytes = stats.nodeEjectedBytes;
    s.histBuckets = stats.totalLatencyHist.buckets();
    return s;
}

/** FNV-1a over every signature field, in declaration order. */
std::uint64_t
signatureDigest(const RunSignature &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    const auto mixAll = [&mix](const std::vector<std::uint64_t> &v) {
        mix(v.size());
        for (const std::uint64_t x : v)
            mix(x);
    };
    mix(s.endCycle);
    mix(s.packetsInjected);
    mix(s.packetsEjected);
    mix(s.flitsInjected);
    mix(s.flitsEjected);
    mix(s.latCount);
    mix(std::bit_cast<std::uint64_t>(s.latSum));
    mix(std::bit_cast<std::uint64_t>(s.latMin));
    mix(std::bit_cast<std::uint64_t>(s.latMax));
    mixAll(s.nodeInjFlits);
    mixAll(s.nodeEjFlits);
    mixAll(s.nodeInjBytes);
    mixAll(s.nodeEjBytes);
    mixAll(s.histBuckets);
    return h;
}

/** Adds `b`'s totals into `a` (merging two slices into one view). */
void
mergeSignature(RunSignature &a, const RunSignature &b)
{
    a.endCycle = std::max(a.endCycle, b.endCycle);
    a.packetsInjected += b.packetsInjected;
    a.packetsEjected += b.packetsEjected;
    a.flitsInjected += b.flitsInjected;
    a.flitsEjected += b.flitsEjected;
    if (b.latCount > 0) {
        a.latMin = a.latCount ? std::min(a.latMin, b.latMin) : b.latMin;
        a.latMax = a.latCount ? std::max(a.latMax, b.latMax) : b.latMax;
    }
    a.latCount += b.latCount;
    a.latSum += b.latSum;
    auto add = [](std::vector<std::uint64_t> &x,
                  const std::vector<std::uint64_t> &y) {
        tenoc_assert(x.size() == y.size(), "signature size mismatch");
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] += y[i];
    };
    add(a.nodeInjFlits, b.nodeInjFlits);
    add(a.nodeEjFlits, b.nodeEjFlits);
    add(a.nodeInjBytes, b.nodeInjBytes);
    add(a.nodeEjBytes, b.nodeEjBytes);
    add(a.histBuckets, b.histBuckets);
}

void
compareSignatures(const RunSignature &a, const RunSignature &b,
                  const std::string &what, bool compare_end,
                  std::vector<std::string> &violations)
{
    auto fail = [&](const std::string &field) {
        violations.push_back(what + ": " + field +
                             " differs between the two runs");
    };
    if (compare_end && a.endCycle != b.endCycle)
        fail("end cycle");
    if (a.packetsInjected != b.packetsInjected)
        fail("packetsInjected");
    if (a.packetsEjected != b.packetsEjected)
        fail("packetsEjected");
    if (a.flitsInjected != b.flitsInjected)
        fail("flitsInjected");
    if (a.flitsEjected != b.flitsEjected)
        fail("flitsEjected");
    if (a.latCount != b.latCount)
        fail("latency count");
    if (a.latSum != b.latSum)
        fail("latency sum");
    if (a.latCount > 0 && b.latCount > 0 &&
        (a.latMin != b.latMin || a.latMax != b.latMax))
        fail("latency min/max");
    if (a.nodeInjFlits != b.nodeInjFlits)
        fail("per-node injected flits");
    if (a.nodeEjFlits != b.nodeEjFlits)
        fail("per-node ejected flits");
    if (a.nodeInjBytes != b.nodeInjBytes)
        fail("per-node injected bytes");
    if (a.nodeEjBytes != b.nodeEjBytes)
        fail("per-node ejected bytes");
    if (a.histBuckets != b.histBuckets)
        fail("latency histogram");
}

/** Hard cap on post-generation drain time before declaring deadlock. */
constexpr Cycle DRAIN_CAP = 200000;

/**
 * Oracles 3-5 share this: run the deterministic schedule on a network
 * built from `cfg` (with invariant validation on or off), audited by a
 * GoldenShadow, and return the final-statistics signature.
 */
RunSignature
shadowRun(const DiffConfig &cfg, bool validate,
          std::vector<std::string> &violations)
{
    const std::string run =
        std::string("shadow run (validate=") + (validate ? "1" : "0") + ")";

    MeshNetworkParams np = cfg.toNetParams();
    np.validate = validate;
    np.watchdogWindow = DRAIN_CAP / 2;

    bool watchdog_fired = false;
    std::unique_ptr<Network> net;
    if (cfg.sliced) {
        auto dn = std::make_unique<DoubleNetwork>(np);
        dn->setWatchdogHandler(
            [&](const WatchdogReport &) { watchdog_fired = true; });
        net = std::move(dn);
    } else {
        auto mn = std::make_unique<MeshNetwork>(np);
        mn->setWatchdogHandler(
            [&](const WatchdogReport &) { watchdog_fired = true; });
        net = std::move(mn);
    }

    const Topology &topo = net->topology();
    GoldenModel golden(topo, np);
    GoldenShadow shadow(golden, topo);

    std::vector<std::unique_ptr<ShadowSink>> sinks;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        sinks.push_back(std::make_unique<ShadowSink>(shadow, n));
        net->setSink(n, sinks.back().get());
    }

    TrafficSchedule schedule(cfg, topo);
    std::vector<std::deque<PacketPtr>> pending(topo.numNodes());
    std::size_t pending_total = 0;
    std::vector<GenPacket> fresh;

    Cycle now = 0;
    const Cycle hard_end = cfg.genCycles + DRAIN_CAP;
    for (; now < hard_end; ++now) {
        if (now < cfg.genCycles) {
            fresh.clear();
            schedule.generate(now, fresh);
            for (const GenPacket &g : fresh) {
                auto pkt = makePacket();
                pkt->src = g.src;
                pkt->dst = g.dst;
                pkt->op = g.protoClass == 0 ? MemOp::READ_REQUEST
                                            : MemOp::READ_REPLY;
                pkt->protoClass = g.protoClass;
                pkt->sizeFlits = g.sizeFlits;
                pkt->sizeBytes = g.sizeFlits * net->flitBytes();
                pkt->createdCycle = g.created;
                pending[g.src].push_back(std::move(pkt));
                ++pending_total;
            }
        }
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            auto &q = pending[n];
            while (!q.empty() &&
                   net->canInject(n, q.front()->protoClass)) {
                // The network owns the packet now; it stays queued in
                // the NI, so the shadow reads its id and route after.
                const Packet *held = q.front().get();
                net->inject(std::move(q.front()), now);
                q.pop_front();
                --pending_total;
                shadow.onInject(*held, now);
            }
        }
        if (now >= cfg.genCycles && pending_total == 0 &&
            net->drained()) {
            break;
        }
        net->cycle(now);
        if (watchdog_fired)
            break;
    }

    const bool drained = pending_total == 0 && net->drained();
    if (watchdog_fired) {
        violations.push_back(run + ": deadlock watchdog fired");
    } else if (!drained) {
        violations.push_back(run + ": traffic failed to drain within " +
                             std::to_string(hard_end) + " cycles");
    }
    shadow.finalCheck(net->stats(), drained);
    for (const std::string &v : shadow.violations()) {
        if (full(violations))
            break;
        violations.push_back(run + ": " + v);
    }
    return captureSignature(net->stats(), now);
}

// ---------------------------------------------------------------------
// Oracle 2: zero-load probes
// ---------------------------------------------------------------------

void
zeroLoadOracle(const DiffConfig &cfg, const DiffOptions &opts,
               std::vector<std::string> &violations)
{
    MeshNetworkParams np = cfg.toNetParams();
    MeshNetwork net(np);
    const Topology &topo = net.topology();
    GoldenModel golden(topo, np);
    GoldenShadow shadow(golden, topo);
    shadow.setExpectZeroLoad(true);

    std::vector<std::unique_ptr<ShadowSink>> sinks;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        sinks.push_back(std::make_unique<ShadowSink>(shadow, n));
        net.setSink(n, sinks.back().get());
    }

    Rng rng(deriveStreamSeed(cfg.seed, 0x960b3ULL));
    Cycle now = 0;
    for (unsigned probe = 0; probe < opts.zeroLoadProbes; ++probe) {
        NodeId src, dst;
        do {
            src = static_cast<NodeId>(rng.nextRange(topo.numNodes()));
            dst = static_cast<NodeId>(rng.nextRange(topo.numNodes()));
        } while (!routablePair(cfg, topo, src, dst));

        auto pkt = makePacket();
        pkt->src = src;
        pkt->dst = dst;
        pkt->op = MemOp::READ_REQUEST;
        pkt->protoClass = 0;
        // The zero-load formula is exact only while the packet fits in
        // one VC buffer; larger packets stall on the credit round trip
        // (those are still covered by the shadow run's lower bound).
        pkt->sizeFlits = 1 + static_cast<unsigned>(rng.nextRange(
            std::min<std::uint64_t>(4, cfg.vcDepth)));
        pkt->sizeBytes = pkt->sizeFlits * net.flitBytes();
        pkt->createdCycle = now;
        const Packet *held = pkt.get();
        tenoc_assert(net.canInject(src, 0), "idle NI rejected a probe");
        net.inject(std::move(pkt), now);
        shadow.onInject(*held, now);

        const Cycle probe_cap = now + 100000;
        while (!net.drained() && now < probe_cap) {
            net.cycle(now);
            ++now;
        }
        if (!net.drained()) {
            violations.push_back(
                "zero-load probe: packet " + std::to_string(src) +
                " -> " + std::to_string(dst) +
                " never drained on an idle network");
            return;
        }
        ++now; // idle gap so probes can't interact
        if (full(violations))
            break;
    }
    shadow.finalCheck(net.stats(), net.drained());
    for (const std::string &v : shadow.violations()) {
        if (full(violations))
            break;
        violations.push_back("zero-load probe: " + v);
    }
}

// ---------------------------------------------------------------------
// Oracle 6: sliced double network == two independent slices
// ---------------------------------------------------------------------

void
slicedEquivalenceOracle(const DiffConfig &cfg,
                        std::vector<std::string> &violations)
{
    MeshNetworkParams np = cfg.toNetParams();
    np.watchdogWindow = DRAIN_CAP / 2;

    // Pass 1: the real DoubleNetwork.
    RunSignature combined_sig;
    MeshNetworkParams req_params, rep_params;
    {
        DoubleNetwork dn(np);
        bool fired = false;
        dn.setWatchdogHandler(
            [&](const WatchdogReport &) { fired = true; });
        req_params = dn.requestNet().params();
        rep_params = dn.replyNet().params();

        const Topology &topo = dn.topology();
        NullSink sink;
        for (NodeId n = 0; n < topo.numNodes(); ++n)
            dn.setSink(n, &sink);

        TrafficSchedule schedule(cfg, topo);
        std::vector<std::deque<PacketPtr>> pending(topo.numNodes());
        std::size_t pending_total = 0;
        std::vector<GenPacket> fresh;
        const unsigned slice_flit_bytes = cfg.flitBytes / 2;

        Cycle now = 0;
        const Cycle hard_end = cfg.genCycles + DRAIN_CAP;
        for (; now < hard_end; ++now) {
            if (now < cfg.genCycles) {
                fresh.clear();
                schedule.generate(now, fresh);
                for (const GenPacket &g : fresh) {
                    auto pkt = makePacket();
                    pkt->src = g.src;
                    pkt->dst = g.dst;
                    pkt->op = g.protoClass == 0 ? MemOp::READ_REQUEST
                                                : MemOp::READ_REPLY;
                    pkt->protoClass = g.protoClass;
                    pkt->sizeFlits = g.sizeFlits;
                    pkt->sizeBytes = g.sizeFlits * slice_flit_bytes;
                    pkt->createdCycle = g.created;
                    pending[g.src].push_back(std::move(pkt));
                    ++pending_total;
                }
            }
            for (NodeId n = 0; n < topo.numNodes(); ++n) {
                auto &q = pending[n];
                while (!q.empty() &&
                       dn.canInject(n, q.front()->protoClass)) {
                    dn.inject(std::move(q.front()), now);
                    q.pop_front();
                    --pending_total;
                }
            }
            if (now >= cfg.genCycles && pending_total == 0 &&
                dn.drained()) {
                break;
            }
            dn.cycle(now);
            if (fired)
                break;
        }
        if (fired || pending_total != 0 || !dn.drained()) {
            violations.push_back(
                "sliced equivalence: double network failed to drain");
            return;
        }
        combined_sig = captureSignature(dn.stats(), now);
    }

    // Pass 2: the same schedule on two standalone slice networks built
    // from the exact per-slice parameters the double network used.
    MeshNetwork req(req_params);
    MeshNetwork rep(rep_params);
    bool fired = false;
    req.setWatchdogHandler([&](const WatchdogReport &) { fired = true; });
    rep.setWatchdogHandler([&](const WatchdogReport &) { fired = true; });

    const Topology &topo = req.topology();
    NullSink sink;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        req.setSink(n, &sink);
        rep.setSink(n, &sink);
    }

    TrafficSchedule schedule(cfg, topo);
    std::vector<std::deque<PacketPtr>> pending_req(topo.numNodes());
    std::vector<std::deque<PacketPtr>> pending_rep(topo.numNodes());
    std::size_t pending_total = 0;
    std::vector<GenPacket> fresh;
    const unsigned slice_flit_bytes = cfg.flitBytes / 2;

    Cycle now = 0;
    const Cycle hard_end = cfg.genCycles + DRAIN_CAP;
    for (; now < hard_end; ++now) {
        if (now < cfg.genCycles) {
            fresh.clear();
            schedule.generate(now, fresh);
            for (const GenPacket &g : fresh) {
                auto pkt = makePacket();
                pkt->src = g.src;
                pkt->dst = g.dst;
                pkt->op = g.protoClass == 0 ? MemOp::READ_REQUEST
                                            : MemOp::READ_REPLY;
                pkt->protoClass = g.protoClass;
                pkt->sizeFlits = g.sizeFlits;
                pkt->sizeBytes = g.sizeFlits * slice_flit_bytes;
                pkt->createdCycle = g.created;
                auto &q = g.protoClass == 0 ? pending_req[g.src]
                                            : pending_rep[g.src];
                q.push_back(std::move(pkt));
                ++pending_total;
            }
        }
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            while (!pending_req[n].empty() &&
                   req.canInject(n, pending_req[n].front()->protoClass)) {
                req.inject(std::move(pending_req[n].front()), now);
                pending_req[n].pop_front();
                --pending_total;
            }
            while (!pending_rep[n].empty() &&
                   rep.canInject(n, pending_rep[n].front()->protoClass)) {
                rep.inject(std::move(pending_rep[n].front()), now);
                pending_rep[n].pop_front();
                --pending_total;
            }
        }
        if (now >= cfg.genCycles && pending_total == 0 &&
            req.drained() && rep.drained()) {
            break;
        }
        req.cycle(now);
        rep.cycle(now);
        if (fired)
            break;
    }
    if (fired || pending_total != 0 || !req.drained() ||
        !rep.drained()) {
        violations.push_back(
            "sliced equivalence: standalone slices failed to drain");
        return;
    }

    RunSignature slices_sig = captureSignature(req.stats(), now);
    mergeSignature(slices_sig, captureSignature(rep.stats(), now));
    compareSignatures(combined_sig, slices_sig,
                      "sliced equivalence (double net vs standalone "
                      "slices)",
                      true, violations);
}

} // namespace

// ---------------------------------------------------------------------
// DiffConfig
// ---------------------------------------------------------------------

MeshNetworkParams
DiffConfig::toNetParams() const
{
    MeshNetworkParams np;
    np.topo.rows = rows;
    np.topo.cols = cols;
    np.topo.numMcs = numMcs;
    np.topo.placement = checkerboard ? McPlacement::CHECKERBOARD
                                     : McPlacement::TOP_BOTTOM;
    np.topo.checkerboardRouters = checkerboard;
    np.flitBytes = flitBytes;
    np.protoClasses = protoClasses;
    np.vcsPerClass = vcsPerClass;
    np.vcDepth = vcDepth;
    np.pipelineDepth = pipelineDepth;
    np.halfPipelineDepth = halfPipelineDepth;
    np.mcInjPorts = mcInjPorts;
    np.mcEjPorts = mcEjPorts;
    np.seed = seed;
    return np;
}

std::string
DiffConfig::serialize() const
{
    std::ostringstream os;
    os.precision(17);
    os << "rows = " << rows << "\n"
       << "cols = " << cols << "\n"
       << "numMcs = " << numMcs << "\n"
       << "checkerboard = " << (checkerboard ? 1 : 0) << "\n"
       << "flitBytes = " << flitBytes << "\n"
       << "protoClasses = " << protoClasses << "\n"
       << "vcsPerClass = " << vcsPerClass << "\n"
       << "vcDepth = " << vcDepth << "\n"
       << "pipelineDepth = " << pipelineDepth << "\n"
       << "halfPipelineDepth = " << halfPipelineDepth << "\n"
       << "mcInjPorts = " << mcInjPorts << "\n"
       << "mcEjPorts = " << mcEjPorts << "\n"
       << "sliced = " << (sliced ? 1 : 0) << "\n"
       << "rate = " << rate << "\n"
       << "genCycles = " << genCycles << "\n"
       << "seed = " << seed << "\n";
    return os.str();
}

bool
DiffConfig::parse(const std::string &text, DiffConfig &out,
                  std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };

    // Whole-value numbers only: std::stoull alone would wrap a leading
    // '-' modulo 2^64 and stop at trailing junk ("8abc" -> 8), and a
    // plain cast would wrap a value past its field's width.
    const auto uintOf = [](const std::string &val, std::uint64_t max) {
        if (val.find('-') != std::string::npos)
            throw std::invalid_argument(val);
        std::size_t pos = 0;
        const std::uint64_t v = std::stoull(val, &pos);
        if (pos != val.size() || v > max)
            throw std::out_of_range(val);
        return v;
    };
    const auto u32 = [&](const std::string &val) {
        return static_cast<unsigned>(uintOf(val, UINT32_MAX));
    };
    const auto doubleOf = [](const std::string &val) {
        std::size_t pos = 0;
        const double v = std::stod(val, &pos);
        if (pos != val.size())
            throw std::invalid_argument(val);
        return v;
    };

    DiffConfig cfg;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return fail("malformed line (no '='): " + line);
        auto trim = [](std::string s) {
            const auto b = s.find_first_not_of(" \t\r");
            const auto e = s.find_last_not_of(" \t\r");
            return b == std::string::npos
                ? std::string()
                : s.substr(b, e - b + 1);
        };
        const std::string key = trim(line.substr(0, eq));
        const std::string val = trim(line.substr(eq + 1));
        if (key.empty() || val.empty())
            return fail("malformed line: " + line);

        try {
            if (key == "rows")
                cfg.rows = u32(val);
            else if (key == "cols")
                cfg.cols = u32(val);
            else if (key == "numMcs")
                cfg.numMcs = u32(val);
            else if (key == "checkerboard")
                cfg.checkerboard = uintOf(val, 1) != 0;
            else if (key == "flitBytes")
                cfg.flitBytes = u32(val);
            else if (key == "protoClasses")
                cfg.protoClasses = u32(val);
            else if (key == "vcsPerClass")
                cfg.vcsPerClass = u32(val);
            else if (key == "vcDepth")
                cfg.vcDepth = u32(val);
            else if (key == "pipelineDepth")
                cfg.pipelineDepth = u32(val);
            else if (key == "halfPipelineDepth")
                cfg.halfPipelineDepth = u32(val);
            else if (key == "mcInjPorts")
                cfg.mcInjPorts = u32(val);
            else if (key == "mcEjPorts")
                cfg.mcEjPorts = u32(val);
            else if (key == "sliced")
                cfg.sliced = uintOf(val, 1) != 0;
            else if (key == "rate")
                cfg.rate = doubleOf(val);
            else if (key == "genCycles")
                cfg.genCycles = uintOf(val, UINT64_MAX);
            else if (key == "seed")
                cfg.seed = uintOf(val, UINT64_MAX);
            else
                return fail("unknown key: " + key);
        } catch (const std::exception &) {
            return fail("bad value for " + key + ": " + val);
        }
    }
    if (!legalDiffConfig(cfg))
        return fail("parsed config violates the config-space rules");
    out = cfg;
    return true;
}

bool
legalDiffConfig(const DiffConfig &cfg)
{
    if (cfg.rows < 2 || cfg.cols < 2)
        return false;
    // A 64-bit product: 32-bit rows x cols wraps.
    const std::uint64_t nodes = std::uint64_t{cfg.rows} * cfg.cols;
    if (nodes > UINT32_MAX || cfg.numMcs < 1 || cfg.numMcs >= nodes)
        return false;
    if (cfg.checkerboard) {
        if (cfg.numMcs > oddParityCells(cfg.rows, cfg.cols))
            return false;
    } else {
        // TOP_BOTTOM packs ceil(numMcs/2) MCs into the top row.
        if ((cfg.numMcs + 1) / 2 > cfg.cols)
            return false;
    }
    if (cfg.flitBytes < 1)
        return false;
    if (cfg.protoClasses < 1 || cfg.vcsPerClass < 1 || cfg.vcDepth < 1 ||
        cfg.vcDepth > VcSlabs::MAX_DEPTH)
        return false;
    if (cfg.pipelineDepth < 1 || cfg.halfPipelineDepth < 1 ||
        cfg.halfPipelineDepth > cfg.pipelineDepth)
        return false;
    if (cfg.mcInjPorts < 1 || cfg.mcEjPorts < 1)
        return false;
    // The simulator's own router limits: at most 64 input VCs and 64
    // outputs.
    if (!routerGeometryError(cfg.toNetParams()).empty())
        return false;
    if (cfg.sliced) {
        if (cfg.protoClasses != 2)
            return false;
        if (cfg.flitBytes % 2 != 0 || cfg.flitBytes / 2 < 2)
            return false;
    }
    if (cfg.rate < 0.0 || cfg.rate > 1.0)
        return false;
    if (cfg.genCycles < 1)
        return false;
    return true;
}

DiffConfig
sampleDiffConfig(Rng &rng)
{
    DiffConfig cfg;
    cfg.rows = 4 + static_cast<unsigned>(rng.nextRange(5));
    cfg.cols = 4 + static_cast<unsigned>(rng.nextRange(5));

    cfg.checkerboard = rng.nextBool(0.4);
    if (cfg.checkerboard) {
        const unsigned cap =
            std::min(oddParityCells(cfg.rows, cfg.cols), 8u);
        cfg.numMcs = 2 + static_cast<unsigned>(rng.nextRange(cap - 1));
    } else {
        const unsigned cap = std::min(2 * cfg.cols, 8u);
        cfg.numMcs = 2 + static_cast<unsigned>(rng.nextRange(cap - 1));
    }

    cfg.flitBytes = rng.nextBool(0.5) ? 8 : 16;
    cfg.protoClasses = 1 + static_cast<unsigned>(rng.nextRange(2));
    cfg.vcsPerClass = 1 + static_cast<unsigned>(rng.nextRange(2));
    cfg.vcDepth = 2 + static_cast<unsigned>(rng.nextRange(7));
    cfg.pipelineDepth = 2 + static_cast<unsigned>(rng.nextRange(4));
    cfg.halfPipelineDepth =
        2 + static_cast<unsigned>(rng.nextRange(cfg.pipelineDepth - 1));
    cfg.mcInjPorts = 1 + static_cast<unsigned>(rng.nextRange(2));
    cfg.mcEjPorts = 1 + static_cast<unsigned>(rng.nextRange(2));
    cfg.sliced = cfg.protoClasses == 2 && rng.nextBool(0.3);
    cfg.rate = 0.01 + 0.05 * rng.nextDouble();
    cfg.genCycles = 300 + rng.nextRange(500);
    cfg.seed = rng.next();

    tenoc_assert(legalDiffConfig(cfg), "sampler produced illegal config");
    return cfg;
}

// ---------------------------------------------------------------------
// runDiff / minimizeConfig
// ---------------------------------------------------------------------

DiffReport
runDiff(const DiffConfig &cfg, const DiffOptions &opts)
{
    DiffReport rep;
    if (!legalDiffConfig(cfg)) {
        rep.violations.push_back(
            "config violates the legal configuration space");
        return rep;
    }

    routingSweepOracle(cfg, rep.violations);
    zeroLoadOracle(cfg, opts, rep.violations);

    const RunSignature base = shadowRun(cfg, false, rep.violations);
    rep.signatureDigest = signatureDigest(base);

    // Oracle 4: determinism — bit-identical rerun.
    {
        std::vector<std::string> rerun_violations;
        const RunSignature rerun =
            shadowRun(cfg, false, rerun_violations);
        compareSignatures(base, rerun, "determinism rerun", true,
                          rep.violations);
    }

    // Oracle 5: validation on vs off must be bit-identical.
    if (!full(rep.violations)) {
        std::vector<std::string> validated_violations;
        const RunSignature sig =
            shadowRun(cfg, true, validated_violations);
        for (std::string &v : validated_violations) {
            if (!full(rep.violations))
                rep.violations.push_back(std::move(v));
        }
        compareSignatures(base, sig, "toggle invariance (validate=1)",
                          true, rep.violations);
    }

    // Oracle 6: channel-sliced double network.
    if (cfg.sliced && !full(rep.violations))
        slicedEquivalenceOracle(cfg, rep.violations);

    if (rep.violations.size() > MAX_VIOLATIONS)
        rep.violations.resize(MAX_VIOLATIONS);
    return rep;
}

DiffConfig
minimizeConfig(const DiffConfig &bad, const DiffOptions &opts,
               unsigned max_trials)
{
    DiffConfig best = bad;
    unsigned trials = 0;

    // Candidate shrink steps, coarse first.  Each returns false when it
    // cannot shrink the field any further.
    using Mutation = std::function<bool(DiffConfig &)>;
    const std::vector<Mutation> mutations = {
        [](DiffConfig &c) {
            if (c.genCycles <= 50)
                return false;
            c.genCycles = std::max<Cycle>(50, c.genCycles / 2);
            return true;
        },
        [](DiffConfig &c) {
            if (c.rows <= 4)
                return false;
            --c.rows;
            return true;
        },
        [](DiffConfig &c) {
            if (c.cols <= 4)
                return false;
            --c.cols;
            return true;
        },
        [](DiffConfig &c) {
            if (c.numMcs <= 2)
                return false;
            --c.numMcs;
            return true;
        },
        [](DiffConfig &c) {
            if (!c.sliced)
                return false;
            c.sliced = false;
            return true;
        },
        [](DiffConfig &c) {
            if (c.vcsPerClass <= 1)
                return false;
            c.vcsPerClass = 1;
            return true;
        },
        [](DiffConfig &c) {
            if (c.protoClasses <= 1 || c.sliced)
                return false;
            c.protoClasses = 1;
            return true;
        },
        [](DiffConfig &c) {
            if (c.mcInjPorts == 1 && c.mcEjPorts == 1)
                return false;
            c.mcInjPorts = c.mcEjPorts = 1;
            return true;
        },
        [](DiffConfig &c) {
            if (c.vcDepth == 8)
                return false;
            c.vcDepth = 8;
            return true;
        },
        [](DiffConfig &c) {
            if (c.pipelineDepth == 4 && c.halfPipelineDepth == 3)
                return false;
            c.pipelineDepth = 4;
            c.halfPipelineDepth = 3;
            return true;
        },
    };

    bool improved = true;
    while (improved && trials < max_trials) {
        improved = false;
        for (const Mutation &m : mutations) {
            if (trials >= max_trials)
                break;
            DiffConfig candidate = best;
            if (!m(candidate) || !legalDiffConfig(candidate))
                continue;
            ++trials;
            if (!runDiff(candidate, opts).ok()) {
                best = candidate;
                improved = true;
            }
        }
    }
    return best;
}

} // namespace tenoc
