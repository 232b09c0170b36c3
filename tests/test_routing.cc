/**
 * @file
 * Unit and property tests for XY and checkerboard routing, in
 * particular the checkerboard routing invariants of Sec. IV-B:
 *   (1) every core<->MC (and core<->core involving a half-router pair)
 *       route is feasible,
 *   (2) packets never turn at a half-router,
 *   (3) the route is minimal (hop count == Manhattan distance),
 *   (4) two-phase routes switch from the YX class to the XY class
 *       exactly once, at a full router inside the minimal quadrant.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "noc/routing.hh"

namespace tenoc
{
namespace
{

struct WalkResult
{
    unsigned hops = 0;
    unsigned turns_at_half = 0;
    unsigned class_switches = 0;
    bool arrived = false;
};

/** Walks a packet hop by hop through the topology. */
WalkResult
walk(const Topology &topo, const Routing &algo, NodeId src,
     NodeId dst, Rng &rng)
{
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    algo.initPacket(pkt, rng);

    WalkResult res;
    NodeId cur = src;
    int prev_dir = -1;
    int prev_class = pkt.routeClass();
    const unsigned max_hops = topo.numNodes() * 2;
    while (res.hops <= max_hops) {
        const unsigned out = algo.route(cur, pkt);
        if (out == PORT_EJECT) {
            res.arrived = (cur == dst);
            return res;
        }
        if (pkt.routeClass() != prev_class) {
            ++res.class_switches;
            prev_class = pkt.routeClass();
        }
        if (prev_dir >= 0 && static_cast<int>(out) != prev_dir &&
            topo.isHalfRouter(cur)) {
            ++res.turns_at_half;
        }
        prev_dir = static_cast<int>(out);
        cur = topo.neighbor(cur, static_cast<Direction>(out));
        EXPECT_NE(cur, INVALID_NODE);
        ++res.hops;
    }
    return res; // livelock: arrived stays false
}

Topology
checkerboardTopo(unsigned rows = 6, unsigned cols = 6,
                 unsigned mcs = 8)
{
    TopologyParams p;
    p.rows = rows;
    p.cols = cols;
    p.numMcs = mcs;
    p.placement = McPlacement::CHECKERBOARD;
    p.checkerboardRouters = true;
    return Topology(p);
}

TEST(DorRouting, XyGoesXThenY)
{
    TopologyParams tp;
    Topology t(tp);
    Routing xy(t);
    Rng rng(1);
    Packet pkt;
    pkt.src = t.nodeAt(0, 0);
    pkt.dst = t.nodeAt(3, 2);
    xy.initPacket(pkt, rng);
    EXPECT_EQ(xy.route(t.nodeAt(0, 0), pkt), DIR_EAST);
    EXPECT_EQ(xy.route(t.nodeAt(2, 0), pkt), DIR_EAST);
    EXPECT_EQ(xy.route(t.nodeAt(3, 0), pkt), DIR_SOUTH);
    EXPECT_EQ(xy.route(t.nodeAt(3, 2), pkt), PORT_EJECT);
}

TEST(DorRouting, YxGoesYThenX)
{
    // YX is CR's one-bit choice; route() follows the header alone, so
    // a YX header routes YX on any mesh.
    TopologyParams tp;
    Topology t(tp);
    Routing routing(t);
    Packet pkt;
    pkt.src = t.nodeAt(0, 0);
    pkt.dst = t.nodeAt(3, 2);
    pkt.mode = RouteMode::YX;
    EXPECT_EQ(routing.route(t.nodeAt(0, 0), pkt), DIR_SOUTH);
    EXPECT_EQ(routing.route(t.nodeAt(0, 2), pkt), DIR_EAST);
    EXPECT_EQ(routing.route(t.nodeAt(3, 2), pkt), PORT_EJECT);
}

TEST(DorRouting, AllPairsMinimal)
{
    TopologyParams tp;
    Topology t(tp);
    Routing xy(t);
    Rng rng(2);
    for (NodeId s = 0; s < t.numNodes(); ++s) {
        for (NodeId d = 0; d < t.numNodes(); ++d) {
            if (s == d)
                continue;
            const auto res = walk(t, xy, s, d, rng);
            EXPECT_TRUE(res.arrived);
            EXPECT_EQ(res.hops, t.hopDistance(s, d));
        }
    }
}

TEST(CheckerboardRouting, RequiresCheckerboardMesh)
{
    // Full routers take every turn, so their mesh routes XY alone: no
    // packet gets a CR mode and one routing class suffices.
    TopologyParams tp;
    Topology t(tp);
    Routing routing(t);
    EXPECT_EQ(routing.numRouteClasses(), 1u);
    Rng rng(4);
    for (NodeId s = 0; s < t.numNodes(); ++s) {
        for (NodeId d = 0; d < t.numNodes(); ++d) {
            Packet pkt;
            pkt.src = s;
            pkt.dst = d;
            routing.initPacket(pkt, rng);
            EXPECT_EQ(pkt.mode, RouteMode::XY) << s << " -> " << d;
        }
    }
}

TEST(CheckerboardRouting, XyWhenTurnNodeIsFull)
{
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(3);
    // (0,0) full -> (3,0)? parity(3,0)=1 half. dst (3,2): turn node
    // (3,0) is half => XY infeasible; YX turn (0,2) parity 0 full.
    Packet pkt;
    pkt.src = t.nodeAt(0, 0);
    pkt.dst = t.nodeAt(3, 2);
    cr.initPacket(pkt, rng);
    EXPECT_EQ(pkt.mode, RouteMode::YX);

    // dst (2,2): XY turn (2,0) parity 0 full => XY.
    pkt.dst = t.nodeAt(2, 2);
    cr.initPacket(pkt, rng);
    EXPECT_EQ(pkt.mode, RouteMode::XY);
}

TEST(CheckerboardRouting, StraightRoutesAreXy)
{
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(4);
    Packet pkt;
    pkt.src = t.nodeAt(1, 0);
    pkt.dst = t.nodeAt(1, 4); // same column, both half-routers
    cr.initPacket(pkt, rng);
    EXPECT_EQ(pkt.mode, RouteMode::XY);
    const auto res = walk(t, cr, pkt.src, pkt.dst, rng);
    EXPECT_TRUE(res.arrived);
    EXPECT_EQ(res.hops, 4u);
}

TEST(CheckerboardRouting, Case2NeedsTwoPhase)
{
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(5);
    // Half (1,0) -> half (3,2): even columns apart, different rows:
    // XY turn (3,0) half, YX turn (1,2) half -> two-phase (Fig 12(c)).
    Packet pkt;
    pkt.src = t.nodeAt(1, 0);
    pkt.dst = t.nodeAt(3, 2);
    cr.initPacket(pkt, rng);
    EXPECT_EQ(pkt.mode, RouteMode::TWO_PHASE);
    ASSERT_NE(pkt.intermediate, INVALID_NODE);
    EXPECT_FALSE(t.isHalfRouter(pkt.intermediate));
    // Waypoint inside the minimal quadrant, not in the source row, an
    // even number of columns from the source (Sec. IV-B).
    const unsigned ix = t.xOf(pkt.intermediate);
    const unsigned iy = t.yOf(pkt.intermediate);
    EXPECT_GE(ix, 1u);
    EXPECT_LE(ix, 3u);
    EXPECT_NE(iy, 0u);
    EXPECT_LE(iy, 2u);
    EXPECT_EQ((ix - 1) % 2, 0u);
}

TEST(CheckerboardRouting, TwoPhaseCandidatesAllValid)
{
    Topology t = checkerboardTopo();
    Routing cr(t);
    const NodeId src = t.nodeAt(1, 0);
    const NodeId dst = t.nodeAt(3, 2);
    const auto cands = cr.twoPhaseCandidates(src, dst);
    EXPECT_FALSE(cands.empty());
    for (NodeId c : cands) {
        EXPECT_FALSE(t.isHalfRouter(c));
        EXPECT_NE(t.yOf(c), t.yOf(src));
    }
}

TEST(CheckerboardRouting, FullToFullOddDistanceIsImpossible)
{
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(6);
    // Fig. 12(a): full (0,0) to full (1,1): odd columns and rows away;
    // not routable on a checkerboard mesh.  Our traffic never needs
    // it, and the router panics if asked.
    Packet pkt;
    pkt.src = t.nodeAt(0, 0);
    pkt.dst = t.nodeAt(1, 1);
    EXPECT_DEATH(cr.initPacket(pkt, rng), "not routable");
}

/**
 * Directed boundary cases, one per mesh edge: full-to-full odd/odd
 * pairs whose source or destination hugs an edge row/column of
 * half-routers.  Before the waypoint filter checked the *second* leg's
 * XY turn node, each of these pairs got a waypoint whose phase-2 turn
 * landed on an edge half-router; now the candidate set is empty and
 * initPacket refuses (the pair is genuinely unroutable).
 */
TEST(CheckerboardRouting, TopEdgeOddPairHasNoWaypoint)
{
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(8);
    const NodeId src = t.nodeAt(0, 0), dst = t.nodeAt(1, 3);
    EXPECT_TRUE(cr.twoPhaseCandidates(src, dst).empty());
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    EXPECT_DEATH(cr.initPacket(pkt, rng), "not routable");
}

TEST(CheckerboardRouting, BottomEdgeOddPairHasNoWaypoint)
{
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(8);
    const NodeId src = t.nodeAt(1, 5), dst = t.nodeAt(2, 2);
    EXPECT_TRUE(cr.twoPhaseCandidates(src, dst).empty());
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    EXPECT_DEATH(cr.initPacket(pkt, rng), "not routable");
}

TEST(CheckerboardRouting, LeftEdgeOddPairHasNoWaypoint)
{
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(8);
    const NodeId src = t.nodeAt(0, 2), dst = t.nodeAt(3, 5);
    EXPECT_TRUE(cr.twoPhaseCandidates(src, dst).empty());
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    EXPECT_DEATH(cr.initPacket(pkt, rng), "not routable");
}

TEST(CheckerboardRouting, RightEdgeOddPairHasNoWaypoint)
{
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(8);
    const NodeId src = t.nodeAt(5, 1), dst = t.nodeAt(2, 4);
    EXPECT_TRUE(cr.twoPhaseCandidates(src, dst).empty());
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    EXPECT_DEATH(cr.initPacket(pkt, rng), "not routable");
}

TEST(CheckerboardRouting, EveryWaypointTurnsOnlyAtFullRouters)
{
    // Exhaustive: for every two-phase pair, both of each candidate's
    // turn nodes (YX leg at the waypoint, XY leg at (dst.x, wp.y))
    // must be full routers, and the realized walk never turns at a
    // half-router.
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(9);
    for (NodeId s = 0; s < t.numNodes(); ++s) {
        for (NodeId d = 0; d < t.numNodes(); ++d) {
            if (s == d)
                continue;
            const auto cands = cr.twoPhaseCandidates(s, d);
            if (cands.empty())
                continue;
            for (NodeId wp : cands) {
                EXPECT_FALSE(t.isHalfRouter(wp))
                    << s << "->" << d << " via " << wp;
                const NodeId turn2 = t.nodeAt(t.xOf(d), t.yOf(wp));
                if (t.xOf(wp) != t.xOf(d) && t.yOf(wp) != t.yOf(d)) {
                    EXPECT_FALSE(t.isHalfRouter(turn2))
                        << s << "->" << d << " via " << wp;
                }
            }
            const auto res = walk(t, cr, s, d, rng);
            EXPECT_TRUE(res.arrived) << s << "->" << d;
            EXPECT_EQ(res.turns_at_half, 0u) << s << "->" << d;
        }
    }
}

/** Property sweep: all core<->MC pairs on several mesh sizes. */
class CrPropertyTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned,
                                                 unsigned>>
{};

TEST_P(CrPropertyTest, AllMemoryTrafficRoutesAreMinimalAndLegal)
{
    auto [rows, cols, mcs] = GetParam();
    Topology t = checkerboardTopo(rows, cols, mcs);
    Routing cr(t);
    Rng rng(7);

    for (NodeId core : t.computeNodes()) {
        for (NodeId mc : t.mcNodes()) {
            for (int rep = 0; rep < 3; ++rep) { // random waypoints
                // Requests: core -> MC.
                auto req = walk(t, cr, core, mc, rng);
                EXPECT_TRUE(req.arrived) << core << "->" << mc;
                EXPECT_EQ(req.hops, t.hopDistance(core, mc))
                    << "non-minimal request route";
                EXPECT_EQ(req.turns_at_half, 0u)
                    << "illegal turn at half-router";
                EXPECT_LE(req.class_switches, 1u);

                // Replies: MC -> core.
                auto rep_walk = walk(t, cr, mc, core, rng);
                EXPECT_TRUE(rep_walk.arrived) << mc << "->" << core;
                EXPECT_EQ(rep_walk.hops, t.hopDistance(mc, core))
                    << "non-minimal reply route";
                EXPECT_EQ(rep_walk.turns_at_half, 0u);
                EXPECT_LE(rep_walk.class_switches, 1u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Meshes, CrPropertyTest,
                         ::testing::Values(
                             std::tuple{6u, 6u, 8u},
                             std::tuple{4u, 4u, 4u},
                             std::tuple{8u, 8u, 8u},
                             std::tuple{8u, 8u, 16u},
                             std::tuple{5u, 7u, 6u}));

TEST(CheckerboardRouting, McToMcRoutable)
{
    // L2 miss traffic between half-routers must work (Sec. IV-A).
    Topology t = checkerboardTopo();
    Routing cr(t);
    Rng rng(8);
    for (NodeId a : t.mcNodes()) {
        for (NodeId b : t.mcNodes()) {
            if (a == b)
                continue;
            auto res = walk(t, cr, a, b, rng);
            EXPECT_TRUE(res.arrived);
            EXPECT_EQ(res.hops, t.hopDistance(a, b));
            EXPECT_EQ(res.turns_at_half, 0u);
        }
    }
}

TEST(MakeRouting, FactoryNames)
{
    // Routing takes no name: the router kind fixes the mode initPacket
    // gives a turning packet.
    const Topology cb = checkerboardTopo();
    const Topology full{TopologyParams{}};
    Rng rng(10);
    Packet pkt;
    pkt.src = full.nodeAt(0, 0);
    pkt.dst = full.nodeAt(3, 2);
    Routing(full).initPacket(pkt, rng);
    EXPECT_EQ(pkt.mode, RouteMode::XY);
    // (0,0) -> (3,2) on the checkerboard: the XY turn (3,0) is a
    // half-router, so CR picks YX.
    Routing(cb).initPacket(pkt, rng);
    EXPECT_EQ(pkt.mode, RouteMode::YX);
    EXPECT_EQ(Routing(cb).numRouteClasses(), 2u);
    EXPECT_EQ(Routing(full).numRouteClasses(), 1u);
}

TEST(MakeRouting, RouteClassesOfMatchesTheBuiltAlgorithm)
{
    for (const Topology &t : {checkerboardTopo(), Topology{{}}}) {
        EXPECT_EQ(routeClassesOf(t.params()),
                  Routing(t).numRouteClasses())
            << t.params().checkerboardRouters;
    }
}

} // namespace
} // namespace tenoc
