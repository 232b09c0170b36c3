/**
 * @file
 * Tests for the golden reference models and the differential-testing
 * harness (src/noc/golden/): route reconstruction vs the real
 * algorithms, exact zero-load latency, shadow conservation, the config
 * space (serialize/parse/sample/legal), the full oracle battery on
 * directed configs — including all 8 idle-skip x validate x
 * pool-bypass combinations — and the minimizer.
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
walkRealRoute(const Topology &topo, const RoutingAlgorithm &algo,
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
    for (const char *name : {"xy", "yx", "o1turn", "romm", "valiant"}) {
        TopologyParams tp;
        tp.rows = 5;
        tp.cols = 4;
        tp.numMcs = 4;
        Topology topo(tp);
        auto algo = makeRouting(name, topo);
        MeshNetworkParams np;
        np.topo = tp;
        np.routing = name;
        GoldenModel golden(topo, np);
        Rng rng(7);

        std::vector<NodeId> expect;
        for (NodeId s = 0; s < topo.numNodes(); ++s) {
            for (NodeId d = 0; d < topo.numNodes(); ++d) {
                if (s == d)
                    continue;
                Packet pkt;
                pkt.src = s;
                pkt.dst = d;
                algo->initPacket(pkt, rng);
                golden.reconstructRoute(pkt, expect);
                EXPECT_EQ(walkRealRoute(topo, *algo, pkt), expect)
                    << name << " " << s << " -> " << d;
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
    auto algo = makeRouting("cr", topo);
    MeshNetworkParams np;
    np.topo = tp;
    np.routing = "cr";
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
            algo->initPacket(pkt, rng);
            const auto path = walkRealRoute(topo, *algo, pkt);
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

    struct Cap : PacketSink
    {
        Cycle got = 0;
        bool tryReserve(const Packet &) override { return true; }
        void
        deliver(PacketPtr pkt, Cycle now) override
        {
            got = now - pkt->createdCycle;
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
        PacketPtr held = pkt;
        net.inject(std::move(pkt), 0);
        Cycle now = 0;
        while (!net.drained() && now < 10000) {
            net.cycle(now);
            ++now;
        }
        ASSERT_TRUE(net.drained());

        GoldenModel golden(net.topology(), np);
        std::vector<NodeId> route;
        golden.reconstructRoute(*held, route);
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
          "collectiveRate = 0.01\n"}) {
        EXPECT_FALSE(DiffConfig::parse(retired, out, &err)) << retired;
        EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
    }
    // Legal syntax, illegal config space.
    EXPECT_FALSE(DiffConfig::parse("routing = cr\n", out, &err));
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
    // Acceptance: golden-vs-optimized equivalence with idle-skip,
    // pooling, and validation toggled in all 8 combinations.
    DiffConfig cfg;
    cfg.genCycles = 300;
    DiffOptions opts;
    opts.thorough = true;
    const DiffReport rep = runDiff(cfg, opts);
    EXPECT_TRUE(rep.ok()) << rep.violations.size()
                          << " violations, first: "
                          << rep.violations.front();
}

TEST(DiffHarness, CheckerboardConfigPasses)
{
    DiffConfig cfg;
    cfg.checkerboard = true;
    cfg.routing = "cr";
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
