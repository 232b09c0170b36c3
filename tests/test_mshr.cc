/**
 * @file
 * Tests for the MSHR table.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/mshr.hh"
#include "common/rng.hh"

namespace tenoc
{
namespace
{

TEST(Mshr, AllocateNewEntrySendsRequest)
{
    MshrTable m(4);
    EXPECT_TRUE(m.allocate(0x100, 1));
    EXPECT_TRUE(m.pending(0x100));
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.allocations(), 1u);
}

TEST(Mshr, MergeDoesNotSendRequest)
{
    MshrTable m(4);
    EXPECT_TRUE(m.allocate(0x100, 1));
    EXPECT_FALSE(m.allocate(0x100, 2));
    EXPECT_FALSE(m.allocate(0x100, 3));
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.merges(), 2u);
    EXPECT_EQ(m.waiters(0x100), 3u);
}

TEST(Mshr, ReleaseReturnsAllWaitersInOrder)
{
    MshrTable m(4);
    m.allocate(0x40, 10);
    m.allocate(0x40, 20);
    const auto waiters = m.release(0x40);
    ASSERT_EQ(waiters.size(), 2u);
    EXPECT_EQ(waiters[0], 10u);
    EXPECT_EQ(waiters[1], 20u);
    EXPECT_FALSE(m.pending(0x40));
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, FullTableRefusesNewLines)
{
    MshrTable m(2);
    m.allocate(0x0, 1);
    m.allocate(0x40, 2);
    EXPECT_TRUE(m.full());
    EXPECT_FALSE(m.canAllocate(0x80));
    EXPECT_TRUE(m.canAllocate(0x0)); // merge still allowed
    m.release(0x0);
    EXPECT_TRUE(m.canAllocate(0x80));
}

TEST(Mshr, MergeLimitEnforced)
{
    MshrTable m(4, 2);
    m.allocate(0x0, 1);
    m.allocate(0x0, 2);
    EXPECT_FALSE(m.canAllocate(0x0));
}

TEST(Mshr, CapacityMatchesTableII)
{
    MshrTable m(64); // 64 MSHRs per core
    for (Addr i = 0; i < 64; ++i)
        EXPECT_TRUE(m.allocate(i * 64, i));
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.capacity(), 64u);
}

/** Copies a release() view before the table is touched again. */
std::vector<std::uint64_t>
released(MshrTable &m, Addr line)
{
    const auto view = m.release(line);
    return {view.begin(), view.end()};
}

TEST(Mshr, ReusedSlotKeepsWaiterOrder)
{
    MshrTable m(2);
    m.allocate(0x40, 1);
    m.allocate(0x40, 2);
    m.allocate(0x80, 3);
    EXPECT_EQ(released(m, 0x40), (std::vector<std::uint64_t>{1, 2}));
    // The freed slot takes a new line; its waiters start over.
    m.allocate(0xc0, 4);
    m.allocate(0xc0, 5);
    m.allocate(0x80, 6);
    m.allocate(0xc0, 7);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(released(m, 0xc0), (std::vector<std::uint64_t>{4, 5, 7}));
    EXPECT_EQ(released(m, 0x80), (std::vector<std::uint64_t>{3, 6}));
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, FullMergeReleasesEveryWaiterInOrder)
{
    constexpr unsigned max_merged = 32;
    MshrTable m(4, max_merged);
    std::vector<std::uint64_t> want;
    for (unsigned k = 0; k < max_merged; ++k) {
        ASSERT_TRUE(m.canAllocate(0x100));
        m.allocate(0x100, 1000 + k);
        want.push_back(1000 + k);
    }
    EXPECT_FALSE(m.canAllocate(0x100));
    EXPECT_EQ(m.waiters(0x100), max_merged);
    EXPECT_EQ(released(m, 0x100), want);
    EXPECT_TRUE(m.canAllocate(0x100));
}

TEST(Mshr, GenerationMovesOnEveryChange)
{
    MshrTable m(4);
    std::uint64_t gen = m.generation();
    auto moved = [&] {
        const bool changed = m.generation() != gen;
        gen = m.generation();
        return changed;
    };
    m.allocate(0x40, 1);
    EXPECT_TRUE(moved()) << "allocate";
    m.allocate(0x40, 2);
    EXPECT_TRUE(moved()) << "merge";
    EXPECT_TRUE(m.canAllocate(0x80));
    EXPECT_TRUE(m.pending(0x40));
    EXPECT_FALSE(moved()) << "queries";
    m.release(0x40);
    EXPECT_TRUE(moved()) << "release";
}

TEST(Mshr, MatchesReferenceUnderChurn)
{
    // Colliding line addresses exercise probe runs and backward-shift
    // deletion; a map of vectors is the reference.
    MshrTable m(16, 3);
    std::map<Addr, std::vector<std::uint64_t>> ref;
    Rng rng(11);
    std::uint64_t next_waiter = 0;
    for (int step = 0; step < 20000; ++step) {
        const Addr line = rng.nextRange(40) << 20;
        const auto it = ref.find(line);
        if (it != ref.end() && rng.nextBool(0.4)) {
            ASSERT_EQ(released(m, line), it->second);
            ref.erase(it);
            continue;
        }
        const bool can = it != ref.end() ? it->second.size() < 3
                                         : ref.size() < 16;
        ASSERT_EQ(m.canAllocate(line), can);
        if (can) {
            ASSERT_EQ(m.allocate(line, next_waiter), it == ref.end());
            ref[line].push_back(next_waiter++);
        }
        ASSERT_EQ(m.size(), ref.size());
        for (const auto &[l, waiters] : ref)
            ASSERT_EQ(m.waiters(l), waiters.size());
    }
}

TEST(MshrDeath, ReleaseUnknownLinePanics)
{
    MshrTable m(4);
    EXPECT_DEATH(m.release(0xdead), "unknown MSHR line");
}

TEST(MshrDeath, OverflowPanics)
{
    MshrTable m(1);
    m.allocate(0x0, 1);
    EXPECT_DEATH(m.allocate(0x40, 2), "overflow");
}

} // namespace
} // namespace tenoc
