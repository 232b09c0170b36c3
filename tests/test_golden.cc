/**
 * @file
 * Tests for the golden reference models and the differential-testing
 * harness (src/noc/golden/): route reconstruction vs the real
 * algorithms, exact zero-load latency, shadow conservation, the config
 * space (key-file round trip, sampling, legality), the full oracle battery on
 * directed configs — including validation off and on — and the
 * minimizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "noc/golden/diff.hh"
#include "noc/golden/golden.hh"
#include "noc/routing.hh"

namespace tenoc
{
namespace
{

/** Walks the real per-hop routing function, returning the node path. */
std::vector<NodeId>
walkRealRoute(const Topology &topo, const Routing &algo,
              const Packet &pkt)
{
    std::vector<NodeId> path{pkt.src};
    Packet copy = pkt; // route() mutates phase2
    NodeId cur = pkt.src;
    for (unsigned steps = 0; steps <= 4 * topo.numNodes(); ++steps) {
        const unsigned port = algo.route(cur, copy);
        if (port == PORT_EJECT)
            return path;
        cur = topo.neighbor(cur, static_cast<Direction>(port));
        EXPECT_NE(cur, INVALID_NODE);
        path.push_back(cur);
    }
    ADD_FAILURE() << "walk did not terminate";
    return path;
}

TEST(GoldenModel, ReconstructsEveryAlgorithmsRoutes)
{
    // XY, and YX as CR's one-bit choice: route() follows the header
    // alone, so both dimension orders are checked on a full mesh.
    TopologyParams tp;
    tp.rows = 5;
    tp.cols = 4;
    tp.numMcs = 4;
    Topology topo(tp);
    const Routing algo(topo);
    MeshNetworkParams np;
    np.topo = tp;
    GoldenModel golden(topo, np);
    Rng rng(7);

    std::vector<NodeId> expect;
    for (const RouteMode mode : {RouteMode::XY, RouteMode::YX}) {
        for (NodeId s = 0; s < topo.numNodes(); ++s) {
            for (NodeId d = 0; d < topo.numNodes(); ++d) {
                if (s == d)
                    continue;
                Packet pkt;
                pkt.src = s;
                pkt.dst = d;
                algo.initPacket(pkt, rng);
                pkt.mode = mode;
                golden.reconstructRoute(pkt, expect);
                EXPECT_EQ(walkRealRoute(topo, algo, pkt), expect)
                    << static_cast<int>(mode) << " " << s << " -> "
                    << d;
            }
        }
    }
}

TEST(GoldenModel, ReconstructsCheckerboardRoutes)
{
    TopologyParams tp;
    tp.rows = 6;
    tp.cols = 6;
    tp.numMcs = 8;
    tp.placement = McPlacement::CHECKERBOARD;
    tp.checkerboardRouters = true;
    Topology topo(tp);
    const Routing algo(topo);
    MeshNetworkParams np;
    np.topo = tp;
    GoldenModel golden(topo, np);
    Rng rng(7);

    std::vector<NodeId> expect;
    std::vector<std::string> violations;
    for (NodeId s = 0; s < topo.numNodes(); ++s) {
        for (NodeId d = 0; d < topo.numNodes(); ++d) {
            // Full-to-full with both offsets odd is unroutable.
            const bool odd_x = (topo.xOf(s) ^ topo.xOf(d)) & 1;
            const bool odd_y = (topo.yOf(s) ^ topo.yOf(d)) & 1;
            if (s == d || (!topo.isHalfRouter(s) &&
                           !topo.isHalfRouter(d) && odd_x && odd_y))
                continue;
            Packet pkt;
            pkt.src = s;
            pkt.dst = d;
            algo.initPacket(pkt, rng);
            const auto path = walkRealRoute(topo, algo, pkt);
            golden.reconstructRoute(pkt, expect);
            EXPECT_EQ(path, expect) << s << " -> " << d;
            golden.checkRoute(pkt, path, violations);
        }
    }
    EXPECT_TRUE(violations.empty())
        << violations.size() << " route violations, first: "
        << violations.front();
}

TEST(GoldenModel, CheckRouteFlagsDefects)
{
    TopologyParams tp;
    tp.rows = 4;
    tp.cols = 4;
    tp.numMcs = 2;
    Topology topo(tp);
    MeshNetworkParams np;
    np.topo = tp;
    GoldenModel golden(topo, np);

    Packet pkt;
    pkt.src = 0;
    pkt.dst = 3;

    std::vector<std::string> v;
    golden.checkRoute(pkt, {0, 1, 3}, v); // nodes 1 and 3 not adjacent
    EXPECT_FALSE(v.empty());

    v.clear();
    golden.checkRoute(pkt, {0, 1, 2}, v); // wrong final node
    EXPECT_FALSE(v.empty());

    v.clear();
    golden.checkRoute(pkt, {0, 4, 5, 1, 2, 3}, v); // detour, not minimal
    EXPECT_FALSE(v.empty());

    v.clear();
    golden.checkRoute(pkt, {0, 1, 2, 3}, v);
    EXPECT_TRUE(v.empty());
}

TEST(GoldenModel, ZeroLoadMatchesSimulatedProbe)
{
    // Single packets on an idle mesh must hit the formula exactly for
    // every size that fits in one VC buffer.
    MeshNetworkParams np;
    np.topo.rows = 4;
    np.topo.cols = 4;
    np.topo.numMcs = 2;
    np.protoClasses = 1;

    /** Keeps the delivered packet, whose route the model rebuilds. */
    struct Cap : PacketSink
    {
        Cycle got = 0;
        PacketPtr delivered;
        bool tryReserve(const Packet &) override { return true; }
        void
        deliver(PacketPtr pkt, Cycle now) override
        {
            got = now - pkt->createdCycle;
            delivered = std::move(pkt);
        }
    };

    for (unsigned size = 1; size <= 4; ++size) {
        MeshNetwork net(np);
        Cap cap;
        for (NodeId n = 0; n < net.topology().numNodes(); ++n)
            net.setSink(n, &cap);
        auto pkt = makePacket();
        pkt->src = 0;
        pkt->dst = 15;
        pkt->protoClass = 0;
        pkt->sizeFlits = size;
        pkt->sizeBytes = size * np.flitBytes;
        pkt->createdCycle = 0;
        net.inject(std::move(pkt), 0);
        Cycle now = 0;
        while (!net.drained() && now < 10000) {
            net.cycle(now);
            ++now;
        }
        ASSERT_TRUE(net.drained());
        ASSERT_TRUE(cap.delivered);

        GoldenModel golden(net.topology(), np);
        std::vector<NodeId> route;
        golden.reconstructRoute(*cap.delivered, route);
        EXPECT_EQ(cap.got, golden.zeroLoadLatency(route, size))
            << "size " << size;
    }
}

TEST(GoldenShadow, CatchesPhantomDeliveryAndStatMismatch)
{
    TopologyParams tp;
    tp.rows = 4;
    tp.cols = 4;
    tp.numMcs = 2;
    Topology topo(tp);
    MeshNetworkParams np;
    np.topo = tp;
    GoldenModel golden(topo, np);
    GoldenShadow shadow(golden, topo);

    Packet pkt;
    pkt.id = 99;
    pkt.src = 0;
    pkt.dst = 3;
    pkt.createdCycle = 0;
    shadow.onDeliver(pkt, 3, 40); // never injected
    EXPECT_EQ(shadow.violations().size(), 1u);

    shadow.onInject(pkt, 0);
    EXPECT_EQ(shadow.inFlight(), 1u);
    shadow.onDeliver(pkt, 2, 40); // wrong node
    EXPECT_GE(shadow.violations().size(), 2u);

    // Drained network with nothing delivered per its stats: every
    // aggregate the shadow tracked must be reported as a mismatch.
    NetStats empty(topo.numNodes());
    const std::size_t before = shadow.violations().size();
    shadow.finalCheck(empty, true);
    EXPECT_GT(shadow.violations().size(), before);
}

TEST(GoldenShadow, FlagsFasterThanPossibleDelivery)
{
    TopologyParams tp;
    tp.rows = 4;
    tp.cols = 4;
    tp.numMcs = 2;
    Topology topo(tp);
    MeshNetworkParams np;
    np.topo = tp;
    GoldenModel golden(topo, np);
    GoldenShadow shadow(golden, topo);

    Packet pkt;
    pkt.id = 1;
    pkt.src = 0;
    pkt.dst = 15;
    pkt.createdCycle = 0;
    shadow.onInject(pkt, 0);
    shadow.onDeliver(pkt, 15, 5); // physically impossible
    EXPECT_FALSE(shadow.violations().empty());
}

TEST(DiffConfig, SerializeParseRoundtrip)
{
    // A sampled config written as a key file reads back field for
    // field, the rate bit for bit.
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const DiffConfig cfg = sampleDiffConfig(rng);
        Config text;
        text.parseText(toConfig(cfg).toText());
        const DiffConfig back = diffConfigFromConfig(text);
        const TopologyParams &t = cfg.mesh.topo, &bt = back.mesh.topo;
        EXPECT_EQ(bt.rows, t.rows);
        EXPECT_EQ(bt.cols, t.cols);
        EXPECT_EQ(bt.numMcs, t.numMcs);
        EXPECT_EQ(bt.placement, t.placement);
        EXPECT_EQ(bt.checkerboardRouters, t.checkerboardRouters);
        EXPECT_EQ(back.mesh.flitBytes, cfg.mesh.flitBytes);
        EXPECT_EQ(back.mesh.protoClasses, cfg.mesh.protoClasses);
        EXPECT_EQ(back.mesh.vcsPerClass, cfg.mesh.vcsPerClass);
        EXPECT_EQ(back.mesh.vcDepth, cfg.mesh.vcDepth);
        EXPECT_EQ(back.mesh.pipelineDepth, cfg.mesh.pipelineDepth);
        EXPECT_EQ(back.mesh.halfPipelineDepth,
                  cfg.mesh.halfPipelineDepth);
        EXPECT_EQ(back.mesh.mcInjPorts, cfg.mesh.mcInjPorts);
        EXPECT_EQ(back.mesh.mcEjPorts, cfg.mesh.mcEjPorts);
        EXPECT_EQ(back.mesh.seed, cfg.mesh.seed);
        EXPECT_EQ(back.sliced, cfg.sliced);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.rate),
                  std::bit_cast<std::uint64_t>(cfg.rate));
        EXPECT_EQ(back.genCycles, cfg.genCycles);
    }
}

TEST(DiffConfig, SampledConfigsAreLegal)
{
    // Every router kind under every placement it fits: TB-DOR, CP-DOR
    // (checkerboard placement on full routers) and CP-CR.
    Rng rng(11);
    unsigned tb = 0, cp_dor = 0, cp_cr = 0;
    for (int i = 0; i < 500; ++i) {
        const DiffConfig cfg = sampleDiffConfig(rng);
        EXPECT_EQ(meshParamsError(cfg.mesh, cfg.sliced), "");
        const TopologyParams &t = cfg.mesh.topo;
        if (t.placement == McPlacement::TOP_BOTTOM) {
            EXPECT_FALSE(t.checkerboardRouters);
            ++tb;
        } else if (t.checkerboardRouters) {
            ++cp_cr;
        } else {
            ++cp_dor;
        }
    }
    EXPECT_GT(tb, 0u);
    EXPECT_GT(cp_dor, 0u);
    EXPECT_GT(cp_cr, 0u);
}

TEST(DiffHarness, DefaultConfigPassesAllToggleCombinations)
{
    // Acceptance: golden-vs-optimized equivalence with validation off
    // and on.
    DiffConfig cfg;
    cfg.genCycles = 300;
    const DiffReport rep = runDiff(cfg);
    EXPECT_TRUE(rep.ok()) << rep.violations.size()
                          << " violations, first: "
                          << rep.violations.front();
}

TEST(DiffHarness, CheckerboardConfigPasses)
{
    DiffConfig cfg;
    cfg.mesh.topo.placement = McPlacement::CHECKERBOARD;
    cfg.mesh.topo.checkerboardRouters = true;
    cfg.genCycles = 300;
    const DiffReport rep = runDiff(cfg);
    EXPECT_TRUE(rep.ok()) << rep.violations.size()
                          << " violations, first: "
                          << rep.violations.front();
}

TEST(DiffHarness, CheckerboardPlacementOnFullRoutersPasses)
{
    // CP-DOR (Fig. 17): checkerboard MCs, full routers, XY routing;
    // every pair is routable.
    DiffConfig cfg;
    cfg.mesh.topo.placement = McPlacement::CHECKERBOARD;
    cfg.mesh.vcsPerClass = 2;
    cfg.genCycles = 300;
    const DiffReport rep = runDiff(cfg);
    EXPECT_TRUE(rep.ok()) << rep.violations.size()
                          << " violations, first: "
                          << rep.violations.front();
}

TEST(DiffHarness, SlicedConfigPasses)
{
    DiffConfig cfg;
    cfg.sliced = true;
    cfg.genCycles = 300;
    const DiffReport rep = runDiff(cfg);
    EXPECT_TRUE(rep.ok()) << rep.violations.size()
                          << " violations, first: "
                          << rep.violations.front();
}

TEST(DiffHarness, RejectsIllegalConfig)
{
    DiffConfig cfg;
    cfg.mesh.topo.rows = 1; // below the 2x2 minimum
    const DiffReport rep = runDiff(cfg);
    ASSERT_FALSE(rep.ok());
    EXPECT_NE(rep.violations.front().find("at least 2x2"),
              std::string::npos)
        << rep.violations.front();
}

TEST(DiffHarness, MinimizerPreservesLegality)
{
    // The minimizer never runs the oracles on an illegal config and,
    // on a passing input, returns it unchanged (nothing to preserve).
    DiffConfig cfg;
    cfg.genCycles = 100;
    const DiffConfig out = minimizeConfig(cfg, {}, 4);
    EXPECT_EQ(meshParamsError(out.mesh, out.sliced), "");
    EXPECT_EQ(toConfig(out).toText(), toConfig(cfg).toText());
}

} // namespace
} // namespace tenoc
