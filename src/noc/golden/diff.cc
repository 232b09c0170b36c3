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
#include <iterator>
#include <set>

#include "common/log.hh"
#include "noc/golden/golden.hh"
#include "noc/routing.hh"

namespace tenoc
{

namespace
{

/**
 * Independent checkerboard routability predicate (Sec. IV-B): the only
 * pairs CR cannot route are full-router to full-router with both
 * coordinate offsets odd — then both DOR turn nodes and every minimal-
 * quadrant waypoint's second-leg turn land on half-routers.  XY on
 * full routers (with either MC placement) routes every pair.
 */
bool
crUnroutable(const Topology &topo, NodeId src, NodeId dst)
{
    if (!topo.params().checkerboardRouters || topo.isHalfRouter(src) ||
        topo.isHalfRouter(dst))
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
routablePair(const Topology &topo, NodeId src, NodeId dst)
{
    return src != dst && !crUnroutable(topo, src, dst);
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
    Topology topo(cfg.mesh.topo);
    const Routing algo(topo);
    GoldenModel golden(topo, cfg.mesh);
    Rng rng(deriveStreamSeed(cfg.mesh.seed, 0x5eedULL));

    std::vector<NodeId> expect, actual;
    for (NodeId src = 0; src < topo.numNodes(); ++src) {
        for (NodeId dst = 0; dst < topo.numNodes(); ++dst) {
            if (src == dst || full(violations))
                continue;
            if (crUnroutable(topo, src, dst)) {
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
            rngs_.emplace_back(deriveStreamSeed(cfg.mesh.seed, n));
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

    MeshNetworkParams np = cfg.mesh;
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
    MeshNetwork net(cfg.mesh);
    const Topology &topo = net.topology();
    GoldenModel golden(topo, cfg.mesh);
    GoldenShadow shadow(golden, topo);
    shadow.setExpectZeroLoad(true);

    std::vector<std::unique_ptr<ShadowSink>> sinks;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        sinks.push_back(std::make_unique<ShadowSink>(shadow, n));
        net.setSink(n, sinks.back().get());
    }

    Rng rng(deriveStreamSeed(cfg.mesh.seed, 0x960b3ULL));
    Cycle now = 0;
    for (unsigned probe = 0; probe < opts.zeroLoadProbes; ++probe) {
        NodeId src, dst;
        do {
            src = static_cast<NodeId>(rng.nextRange(topo.numNodes()));
            dst = static_cast<NodeId>(rng.nextRange(topo.numNodes()));
        } while (!routablePair(topo, src, dst));

        auto pkt = makePacket();
        pkt->src = src;
        pkt->dst = dst;
        pkt->op = MemOp::READ_REQUEST;
        pkt->protoClass = 0;
        // The zero-load formula is exact only while the packet fits in
        // one VC buffer; larger packets stall on the credit round trip
        // (those are still covered by the shadow run's lower bound).
        pkt->sizeFlits = 1 + static_cast<unsigned>(rng.nextRange(
            std::min<std::uint64_t>(4, cfg.mesh.vcDepth)));
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
    MeshNetworkParams np = cfg.mesh;
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
        const unsigned slice_flit_bytes = cfg.mesh.flitBytes / 2;

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
    const unsigned slice_flit_bytes = cfg.mesh.flitBytes / 2;

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

DiffConfig
diffConfigFromConfig(const Config &cfg)
{
    static const std::set<std::string> known = [] {
        std::set<std::string> keys(std::begin(MESH_CONFIG_KEYS),
                                   std::end(MESH_CONFIG_KEYS));
        keys.insert({"noc.protoClasses", "noc.sliced", "traffic.rate",
                     "traffic.genCycles", "sim.seed"});
        return keys;
    }();
    for (const auto &key : cfg.keys()) {
        if (!known.count(key))
            tenoc_fatal("unknown configuration key '", key, "'");
    }

    DiffConfig d;
    d.mesh = meshParamsFromConfig(cfg, d.mesh);
    d.mesh.protoClasses =
        cfg.getUint32("noc.protoClasses", d.mesh.protoClasses);
    d.mesh.seed = cfg.getUint("sim.seed", d.mesh.seed);
    d.sliced = cfg.getBool("noc.sliced", d.sliced);
    d.rate = cfg.getDouble("traffic.rate", d.rate);
    d.genCycles = cfg.getUint("traffic.genCycles", d.genCycles);
    if (const std::string why = meshParamsError(d.mesh, d.sliced);
        !why.empty())
        tenoc_fatal("invalid network config: ", why);
    if (!(d.rate >= 0.0 && d.rate <= 1.0))
        tenoc_fatal("traffic.rate must lie in [0, 1] (got ", d.rate, ")");
    if (d.genCycles < 1)
        tenoc_fatal("traffic.genCycles must be >= 1");
    return d;
}

Config
toConfig(const DiffConfig &d)
{
    const MeshNetworkParams &m = d.mesh;
    Config cfg;
    cfg.set("noc.rows", m.topo.rows);
    cfg.set("noc.cols", m.topo.cols);
    cfg.set("noc.mcs", m.topo.numMcs);
    cfg.set("noc.placement", placementName(m.topo.placement));
    cfg.set("noc.halfRouters", m.topo.checkerboardRouters);
    cfg.set("noc.flitBytes", m.flitBytes);
    cfg.set("noc.protoClasses", m.protoClasses);
    cfg.set("noc.vcsPerClass", m.vcsPerClass);
    cfg.set("noc.vcDepth", m.vcDepth);
    cfg.set("noc.pipelineDepth", m.pipelineDepth);
    cfg.set("noc.halfPipelineDepth", m.halfPipelineDepth);
    cfg.set("noc.mcInjPorts", m.mcInjPorts);
    cfg.set("noc.mcEjPorts", m.mcEjPorts);
    cfg.set("noc.sliced", d.sliced);
    cfg.set("traffic.rate", d.rate);
    cfg.set("traffic.genCycles", std::uint64_t{d.genCycles});
    cfg.set("sim.seed", m.seed);
    return cfg;
}

DiffConfig
sampleDiffConfig(Rng &rng)
{
    DiffConfig cfg;
    TopologyParams &t = cfg.mesh.topo;
    t.rows = 4 + static_cast<unsigned>(rng.nextRange(5));
    t.cols = 4 + static_cast<unsigned>(rng.nextRange(5));

    // Placement and router kind are drawn independently; half-routers
    // need the checkerboard placement, so top-bottom keeps full
    // routers (TB-DOR) and checkerboard takes either (CP-DOR, CP-CR).
    const bool checkerboard = rng.nextBool(0.5);
    const bool half_routers = rng.nextBool(0.5);
    t.placement = checkerboard ? McPlacement::CHECKERBOARD
                               : McPlacement::TOP_BOTTOM;
    t.checkerboardRouters = checkerboard && half_routers;
    const unsigned cap =
        std::min(checkerboard ? t.rows * t.cols / 2 : 2 * t.cols, 8u);
    t.numMcs = 2 + static_cast<unsigned>(rng.nextRange(cap - 1));

    // Two bounds here are the sampler's own, not legality rules: the
    // half-router pipeline is no deeper than the full one, and sliced
    // flits (8 or 16 bytes, halved) stay at least 2 bytes wide.
    MeshNetworkParams &m = cfg.mesh;
    m.flitBytes = rng.nextBool(0.5) ? 8 : 16;
    m.protoClasses = 1 + static_cast<unsigned>(rng.nextRange(2));
    m.vcsPerClass = 1 + static_cast<unsigned>(rng.nextRange(2));
    m.vcDepth = 2 + static_cast<unsigned>(rng.nextRange(7));
    m.pipelineDepth = 2 + static_cast<unsigned>(rng.nextRange(4));
    m.halfPipelineDepth =
        2 + static_cast<unsigned>(rng.nextRange(m.pipelineDepth - 1));
    m.mcInjPorts = 1 + static_cast<unsigned>(rng.nextRange(2));
    m.mcEjPorts = 1 + static_cast<unsigned>(rng.nextRange(2));
    cfg.sliced = m.protoClasses == 2 && rng.nextBool(0.3);
    cfg.rate = 0.01 + 0.05 * rng.nextDouble();
    cfg.genCycles = 300 + rng.nextRange(500);
    m.seed = rng.next();

    tenoc_assert(meshParamsError(m, cfg.sliced).empty(),
                 "sampler produced illegal config: ",
                 meshParamsError(m, cfg.sliced));
    return cfg;
}

// ---------------------------------------------------------------------
// runDiff / minimizeConfig
// ---------------------------------------------------------------------

DiffReport
runDiff(const DiffConfig &cfg, const DiffOptions &opts)
{
    DiffReport rep;
    if (const std::string why = meshParamsError(cfg.mesh, cfg.sliced);
        !why.empty()) {
        rep.violations.push_back("illegal config: " + why);
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
            if (c.mesh.topo.rows <= 4)
                return false;
            --c.mesh.topo.rows;
            return true;
        },
        [](DiffConfig &c) {
            if (c.mesh.topo.cols <= 4)
                return false;
            --c.mesh.topo.cols;
            return true;
        },
        [](DiffConfig &c) {
            if (c.mesh.topo.numMcs <= 2)
                return false;
            --c.mesh.topo.numMcs;
            return true;
        },
        [](DiffConfig &c) {
            if (!c.sliced)
                return false;
            c.sliced = false;
            return true;
        },
        [](DiffConfig &c) {
            if (c.mesh.vcsPerClass <= 1)
                return false;
            c.mesh.vcsPerClass = 1;
            return true;
        },
        [](DiffConfig &c) {
            if (c.mesh.protoClasses <= 1 || c.sliced)
                return false;
            c.mesh.protoClasses = 1;
            return true;
        },
        [](DiffConfig &c) {
            if (c.mesh.mcInjPorts == 1 && c.mesh.mcEjPorts == 1)
                return false;
            c.mesh.mcInjPorts = c.mesh.mcEjPorts = 1;
            return true;
        },
        [](DiffConfig &c) {
            if (c.mesh.vcDepth == 8)
                return false;
            c.mesh.vcDepth = 8;
            return true;
        },
        [](DiffConfig &c) {
            if (c.mesh.pipelineDepth == 4 &&
                c.mesh.halfPipelineDepth == 3)
                return false;
            c.mesh.pipelineDepth = 4;
            c.mesh.halfPipelineDepth = 3;
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
            if (!m(candidate) ||
                !meshParamsError(candidate.mesh, candidate.sliced).empty())
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
