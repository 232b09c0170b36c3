/**
 * @file
 * Tests for the profile-locality cache.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace tenoc
{
namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.sizeBytes = 1024; // 16 lines
    p.lineBytes = 64;
    p.ways = 4;         // 4 sets
    return p;
}

TEST(Cache, GeometryComputed)
{
    Cache c(smallCache());
    EXPECT_EQ(c.numSets(), 4u);
    EXPECT_EQ(c.lineAddr(0x12345), 0x12340ull & ~0x3full);
}

TEST(Cache, ProfileModeMatchesHitRate)
{
    CacheParams p = smallCache();
    p.profileHitRate = 0.7;
    p.profileWritebackRate = 0.5;
    Cache c(p, 42);
    unsigned hits = 0;
    unsigned wbs = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const auto r = c.access(static_cast<Addr>(i) * 64);
        hits += r.hit;
        wbs += r.writeback.has_value();
    }
    EXPECT_NEAR(hits / double(n), 0.7, 0.02);
    // Writebacks occur on half the misses.
    EXPECT_NEAR(wbs / double(n), 0.3 * 0.5, 0.02);
    EXPECT_NEAR(c.hitRate(), 0.7, 0.02);
}

TEST(CacheDeath, BadGeometryPanics)
{
    CacheParams p;
    p.sizeBytes = 1000; // not a power-of-two line multiple
    p.lineBytes = 48;
    EXPECT_DEATH({ Cache c(p); }, "pow2");
}

} // namespace
} // namespace tenoc
