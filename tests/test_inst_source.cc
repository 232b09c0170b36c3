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
    const unsigned warps = 4;
    ProfileInstSource src(p, 0, warps, 64, 32);
    EXPECT_EQ(src.numWarps(), warps);
    EXPECT_EQ(src.warpLength(2), p.warpInstsPerWarp);

    // Replays the draws decode() must take on a second generator: the
    // memory draw, then for a memory instruction the load/store draw
    // (its result is unused, but every recorded digest depends on the
    // core RNG advancing past it) and the coalescer's.
    Rng replay(5);
    const Coalescer coalescer(32);
    std::vector<AddressStream> streams;
    for (unsigned w = 0; w < warps; ++w)
        streams.emplace_back(0, w, warps, p, 64);

    Rng rng(5);
    unsigned mem = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const auto warp = static_cast<unsigned>(i % warps);
        Warp::PendingInst inst;
        src.decode(warp, inst, rng);
        ASSERT_EQ(inst.isMem, replay.nextBool(p.memFraction)) << i;
        if (inst.isMem) {
            ++mem;
            EXPECT_EQ(inst.lines.size(), 2u);
            (void)replay.nextBool(p.loadFraction);
            ASSERT_EQ(inst.lines,
                      coalescer.coalesce(p, streams[warp], replay))
                << i;
        } else {
            EXPECT_TRUE(inst.lines.empty());
        }
    }
    EXPECT_NEAR(mem / double(n), 0.3, 0.02);
    // Both generators took the same number of draws.
    EXPECT_EQ(rng.next(), replay.next());
}

} // namespace
} // namespace tenoc
