/**
 * @file
 * Tests for the statistical instruction source.
 */

#include <gtest/gtest.h>

#include "gpu/inst_source.hh"

namespace tenoc
{
namespace
{

TEST(ProfileInstSource, MatchesProfileStatistics)
{
    KernelProfile p;
    p.memFraction = 0.3;
    p.loadFraction = 0.8;
    p.avgLinesPerMemInst = 2.0;
    p.rowLocality = 1.0;
    ProfileInstSource src(p, 0, 4, 64, 32);
    EXPECT_EQ(src.numWarps(), 4u);
    EXPECT_EQ(src.warpLength(2), p.warpInstsPerWarp);

    Rng rng(5);
    unsigned mem = 0;
    unsigned stores = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        Warp::PendingInst inst;
        src.decode(static_cast<unsigned>(i % 4), inst, rng);
        if (inst.isMem) {
            ++mem;
            stores += inst.isStore;
            EXPECT_EQ(inst.lines.size(), 2u);
        } else {
            EXPECT_TRUE(inst.lines.empty());
        }
    }
    EXPECT_NEAR(mem / double(n), 0.3, 0.02);
    EXPECT_NEAR(stores / double(mem), 0.2, 0.03);
}

} // namespace
} // namespace tenoc
