/**
 * @file
 * Unit and property tests for the mesh topology and MC placements.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "noc/topology.hh"

namespace tenoc
{
namespace
{

TopologyParams
baseParams()
{
    TopologyParams p;
    p.rows = 6;
    p.cols = 6;
    p.numMcs = 8;
    return p;
}

TEST(Topology, CoordinateRoundTrip)
{
    Topology t(baseParams());
    for (unsigned y = 0; y < 6; ++y) {
        for (unsigned x = 0; x < 6; ++x) {
            const NodeId n = t.nodeAt(x, y);
            EXPECT_EQ(t.xOf(n), x);
            EXPECT_EQ(t.yOf(n), y);
        }
    }
    EXPECT_EQ(t.numNodes(), 36u);
}

TEST(Topology, NeighborsAndEdges)
{
    Topology t(baseParams());
    const NodeId c = t.nodeAt(2, 3);
    EXPECT_EQ(t.neighbor(c, DIR_WEST), t.nodeAt(1, 3));
    EXPECT_EQ(t.neighbor(c, DIR_EAST), t.nodeAt(3, 3));
    EXPECT_EQ(t.neighbor(c, DIR_NORTH), t.nodeAt(2, 2));
    EXPECT_EQ(t.neighbor(c, DIR_SOUTH), t.nodeAt(2, 4));
    EXPECT_EQ(t.neighbor(t.nodeAt(0, 0), DIR_WEST), INVALID_NODE);
    EXPECT_EQ(t.neighbor(t.nodeAt(0, 0), DIR_NORTH), INVALID_NODE);
    EXPECT_EQ(t.neighbor(t.nodeAt(5, 5), DIR_EAST), INVALID_NODE);
    EXPECT_EQ(t.neighbor(t.nodeAt(5, 5), DIR_SOUTH), INVALID_NODE);
}

TEST(Topology, OppositeDirections)
{
    EXPECT_EQ(opposite(DIR_WEST), DIR_EAST);
    EXPECT_EQ(opposite(DIR_EAST), DIR_WEST);
    EXPECT_EQ(opposite(DIR_NORTH), DIR_SOUTH);
    EXPECT_EQ(opposite(DIR_SOUTH), DIR_NORTH);
}

TEST(TopologyDeath, OppositeRejectsPortIndices)
{
    // Regression: opposite() used to map any non-direction input to
    // DIR_WEST, turning port-arithmetic bugs into silent mis-wiring.
    EXPECT_DEATH({ opposite(static_cast<Direction>(PORT_EJECT)); },
                 "non-direction port index");
    EXPECT_DEATH({ opposite(static_cast<Direction>(7)); },
                 "non-direction port index");
}

TEST(TopologyDeath, DirNameRejectsPortIndices)
{
    EXPECT_EQ(std::string(dirName(DIR_SOUTH)), "S");
    EXPECT_EQ(std::string(dirName(PORT_EJECT)), "EJ");
    EXPECT_DEATH({ dirName(PORT_EJECT + 1); },
                 "non-direction port index");
}

TEST(Topology, TopBottomPlacement)
{
    Topology t(baseParams());
    EXPECT_EQ(t.mcNodes().size(), 8u);
    EXPECT_EQ(t.computeNodes().size(), 28u);
    for (NodeId mc : t.mcNodes()) {
        const unsigned y = t.yOf(mc);
        EXPECT_TRUE(y == 0 || y == 5) << "MC not on top/bottom row";
    }
}

TEST(Topology, CheckerboardPlacementUsesOddParityCells)
{
    auto p = baseParams();
    p.placement = McPlacement::CHECKERBOARD;
    p.checkerboardRouters = true;
    Topology t(p);
    for (NodeId mc : t.mcNodes()) {
        EXPECT_EQ(Topology::parity(t.xOf(mc), t.yOf(mc)), 1u);
        EXPECT_TRUE(t.isHalfRouter(mc));
    }
}

TEST(Topology, CheckerboardPlacementIsStaggered)
{
    auto p = baseParams();
    p.placement = McPlacement::CHECKERBOARD;
    Topology t(p);
    // MCs spread over many rows (not packed on two rows like TB).
    std::set<unsigned> rows;
    for (NodeId mc : t.mcNodes())
        rows.insert(t.yOf(mc));
    EXPECT_GE(rows.size(), 5u);
}

TEST(Topology, CheckerboardPlacementTakesEveryKthOddCell)
{
    // mcCoordinates computes the k-th odd-parity cell directly; it must
    // pick the cells a row-major walk of the odd cells picks.
    for (unsigned rows = 2; rows <= 9; ++rows) {
        for (unsigned cols = 2; cols <= 9; ++cols) {
            std::vector<std::pair<unsigned, unsigned>> odd;
            for (unsigned y = 0; y < rows; ++y)
                for (unsigned x = 0; x < cols; ++x)
                    if (Topology::parity(x, y) == 1)
                        odd.emplace_back(x, y);
            for (unsigned mcs = 1; mcs <= odd.size(); ++mcs) {
                if (rows == 6 && cols == 6 && mcs == 8)
                    continue; // the hand-placed "X" (Sec. V-B)
                TopologyParams p;
                p.rows = rows;
                p.cols = cols;
                p.numMcs = mcs;
                p.placement = McPlacement::CHECKERBOARD;
                const double stride =
                    static_cast<double>(odd.size()) / mcs;
                std::vector<std::pair<unsigned, unsigned>> expect;
                for (unsigned i = 0; i < mcs; ++i)
                    expect.push_back(
                        odd[static_cast<std::size_t>(i * stride)]);
                EXPECT_EQ(mcCoordinates(p), expect)
                    << rows << "x" << cols << " with " << mcs << " MCs";
            }
        }
    }
}

TEST(Topology, HalfRouterPattern)
{
    auto p = baseParams();
    p.checkerboardRouters = true;
    p.placement = McPlacement::CHECKERBOARD;
    Topology t(p);
    unsigned halves = 0;
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        EXPECT_EQ(t.isHalfRouter(n),
                  Topology::parity(t.xOf(n), t.yOf(n)) == 1);
        halves += t.isHalfRouter(n);
    }
    EXPECT_EQ(halves, 18u);
}

TEST(Topology, NoHalfRoutersByDefault)
{
    Topology t(baseParams());
    for (NodeId n = 0; n < t.numNodes(); ++n)
        EXPECT_FALSE(t.isHalfRouter(n));
}

TEST(Topology, HopDistance)
{
    Topology t(baseParams());
    EXPECT_EQ(t.hopDistance(t.nodeAt(0, 0), t.nodeAt(5, 5)), 10u);
    EXPECT_EQ(t.hopDistance(t.nodeAt(2, 3), t.nodeAt(2, 3)), 0u);
    EXPECT_EQ(t.hopDistance(t.nodeAt(1, 1), t.nodeAt(4, 0)), 4u);
}

TEST(Topology, CustomPlacement)
{
    auto p = baseParams();
    p.placement = McPlacement::CUSTOM;
    p.numMcs = 2;
    p.customMcs = {{0, 0}, {5, 5}};
    Topology t(p);
    EXPECT_TRUE(t.isMc(t.nodeAt(0, 0)));
    EXPECT_TRUE(t.isMc(t.nodeAt(5, 5)));
    EXPECT_EQ(t.computeNodes().size(), 34u);
}

TEST(TopologyDeath, TbPlacementWithHalfRoutersIsRejected)
{
    auto p = baseParams();
    p.placement = McPlacement::TOP_BOTTOM;
    p.checkerboardRouters = true;
    // Some TB MCs land on full-router (even-parity) cells, which would
    // make checkerboard routing infeasible (Sec. IV-A).
    EXPECT_EXIT({ Topology t(p); }, ::testing::ExitedWithCode(1),
                "not on a half-router cell");
}

TEST(TopologyDeath, DuplicateCustomMcPanics)
{
    auto p = baseParams();
    p.placement = McPlacement::CUSTOM;
    p.numMcs = 2;
    p.customMcs = {{1, 1}, {1, 1}};
    EXPECT_DEATH({ Topology t(p); }, "duplicate MC");
}

TEST(Topology, RenderShowsKindsAndPlacement)
{
    auto count = [](const std::string &s, char c) {
        return std::count(s.begin(), s.end(), c);
    };
    Topology tb(baseParams());
    const std::string tb_art = renderTopology(tb);
    EXPECT_EQ(count(tb_art, 'M'), 8);
    EXPECT_EQ(count(tb_art, 'C'), 28);
    EXPECT_EQ(count(tb_art, 'm'), 0);

    auto p = baseParams();
    p.placement = McPlacement::CHECKERBOARD;
    p.checkerboardRouters = true;
    Topology cb(p);
    const std::string cb_art = renderTopology(cb);
    EXPECT_EQ(count(cb_art, 'm'), 8);  // MCs on half-routers
    EXPECT_EQ(count(cb_art, 'c'), 10); // compute half-routers
    EXPECT_EQ(count(cb_art, 'C'), 18); // compute full-routers
    EXPECT_EQ(count(cb_art, 'M'), 0);
}

/** Generic checkerboard placement must work for other mesh sizes. */
class TopologySizeTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned,
                                                 unsigned>>
{};

TEST_P(TopologySizeTest, CheckerboardPlacementValidEverywhere)
{
    auto [rows, cols, mcs] = GetParam();
    TopologyParams p;
    p.rows = rows;
    p.cols = cols;
    p.numMcs = mcs;
    p.placement = McPlacement::CHECKERBOARD;
    p.checkerboardRouters = true;
    Topology t(p);
    EXPECT_EQ(t.mcNodes().size(), mcs);
    for (NodeId mc : t.mcNodes())
        EXPECT_TRUE(t.isHalfRouter(mc));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologySizeTest,
                         ::testing::Values(
                             std::tuple{4u, 4u, 4u},
                             std::tuple{6u, 6u, 8u},
                             std::tuple{8u, 8u, 8u},
                             std::tuple{8u, 8u, 16u},
                             std::tuple{10u, 10u, 16u},
                             std::tuple{5u, 7u, 6u}));

} // namespace
} // namespace tenoc
