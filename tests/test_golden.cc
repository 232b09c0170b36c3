/**
 * @file
 * Tests for the golden reference models and the differential-testing
 * harness (src/noc/golden/): route reconstruction vs the real
 * algorithms, exact zero-load latency, shadow conservation, the config
 * space (serialize/parse/sample/legal), the full oracle battery on
 * directed configs — including validation off and on — and the
 * minimizer.
 */

#include <gtest/gtest.h>

#include <algorithm>

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
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const DiffConfig cfg = sampleDiffConfig(rng);
        DiffConfig back;
        std::string err;
        ASSERT_TRUE(DiffConfig::parse(cfg.serialize(), back, &err))
            << err;
        EXPECT_EQ(cfg.serialize(), back.serialize());
    }
}

TEST(DiffConfig, ParseRejectsGarbage)
{
    DiffConfig out;
    std::string err;
    EXPECT_FALSE(DiffConfig::parse("bogusKey = 3\n", out, &err));
    EXPECT_FALSE(DiffConfig::parse("rows\n", out, &err));
    EXPECT_FALSE(DiffConfig::parse("rows = banana\n", out, &err));
    // Retired axes are unknown keys, not silently ignored.
    for (const char *retired :
         {"topology = torus\n", "concentration = 2\n",
          "collectiveRate = 0.01\n", "agePriority = 0\n"}) {
        EXPECT_FALSE(DiffConfig::parse(retired, out, &err)) << retired;
        EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
    }
    // Retired keys: the router kind decides the routing, and every
    // link takes one cycle.
    for (const char *retired : {"routing = xy\n", "channelLatency = 1\n"}) {
        EXPECT_FALSE(DiffConfig::parse(retired, out, &err)) << retired;
        EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
    }
    // Numbers must be whole, non-negative and fit their field: these
    // used to wrap (-1 -> 4294967295, 4294967302 -> 6) or drop the
    // junk (8abc -> 8).
    for (const char *bad :
         {"rows = -1\n", "vcDepth = 8abc\n", "cols = 4294967302\n",
          "rate = 0.02x\n", "sliced = 2\n"}) {
        EXPECT_FALSE(DiffConfig::parse(bad, out, &err)) << bad;
        EXPECT_NE(err.find("bad value"), std::string::npos) << err;
    }
    // Legal syntax, illegal config space: rows x cols wraps 32 bits.
    EXPECT_FALSE(DiffConfig::parse("rows = 65536\ncols = 65536\n", out,
                                   &err));
    EXPECT_NE(err.find("config-space"), std::string::npos) << err;
    // A router past 64 input VCs: 4 + 2 inputs x 2 protocol x 6 lanes.
    EXPECT_FALSE(DiffConfig::parse(
        "protoClasses = 2\nvcsPerClass = 6\nmcInjPorts = 2\n", out,
        &err));
    EXPECT_NE(err.find("config-space"), std::string::npos) << err;
    // ...and past 64 outputs.
    EXPECT_FALSE(DiffConfig::parse("mcEjPorts = 61\n", out, &err));
    // ...and rings deeper than a VC record holds.
    EXPECT_FALSE(DiffConfig::parse("vcDepth = 65536\n", out, &err));
    EXPECT_TRUE(DiffConfig::parse("vcDepth = 65535\n", out, &err)) << err;
    // Exactly 64 input VCs and 64 outputs are legal.
    EXPECT_TRUE(DiffConfig::parse(
        "protoClasses = 2\nvcsPerClass = 4\nmcInjPorts = 4\n"
        "mcEjPorts = 60\n", out, &err)) << err;
    // Comments and defaults are fine.
    EXPECT_TRUE(DiffConfig::parse("# just a comment\n", out, &err));
}

TEST(DiffConfig, SampledConfigsAreLegal)
{
    Rng rng(11);
    for (int i = 0; i < 500; ++i)
        EXPECT_TRUE(legalDiffConfig(sampleDiffConfig(rng)));
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
    cfg.checkerboard = true;
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
    cfg.rows = 1; // below the 2x2 minimum
    const DiffReport rep = runDiff(cfg);
    EXPECT_FALSE(rep.ok());
}

TEST(DiffHarness, MinimizerPreservesLegality)
{
    // The minimizer never runs the oracles on an illegal config and,
    // on a passing input, returns it unchanged (nothing to preserve).
    DiffConfig cfg;
    cfg.genCycles = 100;
    const DiffConfig out = minimizeConfig(cfg, {}, 4);
    EXPECT_TRUE(legalDiffConfig(out));
    EXPECT_EQ(out.serialize(), cfg.serialize());
}

} // namespace
} // namespace tenoc
