/**
 * @file
 * Unit tests for the round-robin arbiter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "noc/arbiter.hh"

namespace tenoc
{
namespace
{

/**
 * Reference scanning grant: walks the requestors one by one starting
 * at the arbiter's pointer.  The O(1) grantMask path the router uses
 * is proven against it below.
 *
 * @param requests request flags, arb.size() entries
 * @return winning index, or arb.size() if no requests
 */
unsigned
grant(const RoundRobinArbiter &arb, const std::vector<bool> &requests)
{
    tenoc_assert(requests.size() == arb.size(), "arbiter size mismatch");
    for (unsigned i = 0; i < arb.size(); ++i) {
        const unsigned idx = (arb.pointer() + i) % arb.size();
        if (requests[idx])
            return idx;
    }
    return arb.size();
}

TEST(Arbiter, NoRequestsNoGrant)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(grant(arb, {false, false, false, false}), 4u);
}

TEST(Arbiter, SingleRequestWins)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(grant(arb, {false, false, true, false}), 2u);
}

TEST(Arbiter, RotatesAfterAccept)
{
    RoundRobinArbiter arb(3);
    const std::vector<bool> all{true, true, true};
    unsigned w = grant(arb, all);
    EXPECT_EQ(w, 0u);
    arb.accept(w);
    w = grant(arb, all);
    EXPECT_EQ(w, 1u);
    arb.accept(w);
    w = grant(arb, all);
    EXPECT_EQ(w, 2u);
    arb.accept(w);
    w = grant(arb, all);
    EXPECT_EQ(w, 0u);
}

TEST(Arbiter, PointerHoldsWithoutAccept)
{
    RoundRobinArbiter arb(3);
    const std::vector<bool> all{true, true, true};
    EXPECT_EQ(grant(arb, all), 0u);
    EXPECT_EQ(grant(arb, all), 0u); // iSLIP: no accept, no rotation
}

TEST(Arbiter, FairUnderFullLoad)
{
    RoundRobinArbiter arb(4);
    const std::vector<bool> all{true, true, true, true};
    std::map<unsigned, int> wins;
    for (int i = 0; i < 400; ++i) {
        const unsigned w = grant(arb, all);
        arb.accept(w);
        ++wins[w];
    }
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(wins[i], 100);
}

TEST(Arbiter, SkipsNonRequestors)
{
    RoundRobinArbiter arb(4);
    arb.accept(0); // pointer at 1
    EXPECT_EQ(grant(arb, {true, false, false, true}), 3u);
}

TEST(Arbiter, ResizeResetsOutOfRangePointer)
{
    RoundRobinArbiter arb(4);
    arb.accept(3); // pointer at 0
    arb.accept(0); // pointer at 1
    arb.resize(1);
    EXPECT_EQ(grant(arb, {true}), 0u);
}

TEST(Arbiter, GrantMaskMatchesGrantExhaustively)
{
    // Identical-grants proof: every (random request set, pointer
    // position) pair must grant the same requestor via the reference
    // vector<bool> scan and the one-word mask grant, up to the full
    // 64 requestors (bit 63 and the wrap from pointer 63).
    Rng rng(0xa6b17e5ULL);
    for (const unsigned size : {1u, 3u, 40u, 63u, 64u}) {
        RoundRobinArbiter arb(size);
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<bool> requests(size, false);
            std::uint64_t mask = 0;
            const double density =
                trial % 3 == 0 ? 0.02 : (trial % 3 == 1 ? 0.3 : 0.9);
            for (unsigned i = 0; i < size; ++i) {
                if (rng.nextBool(density)) {
                    requests[i] = true;
                    mask |= std::uint64_t{1} << i;
                }
            }
            arb.setPointer(
                static_cast<unsigned>(rng.nextRange(size)));
            const unsigned ref = grant(arb, requests);
            ASSERT_EQ(ref, arb.grantMask(mask))
                << "size " << size << " pointer " << arb.pointer();
            if (ref < size)
                arb.accept(ref); // walk the pointer like iSLIP does
        }
        // Every pointer position against the lone top requestor and
        // against the lowest and highest together.
        const std::uint64_t top = std::uint64_t{1} << (size - 1);
        for (unsigned ptr = 0; ptr < size; ++ptr) {
            arb.setPointer(ptr);
            for (const std::uint64_t mask : {top, top | 1}) {
                std::vector<bool> requests(size, false);
                requests[0] = (mask & 1) != 0;
                requests[size - 1] = true;
                ASSERT_EQ(grant(arb, requests), arb.grantMask(mask))
                    << "size " << size << " pointer " << ptr;
            }
        }
    }
}

TEST(ArbiterDeath, MoreThan64RequestorsIsFatal)
{
    EXPECT_DEATH(RoundRobinArbiter(65), "at most 64 requestors");
    RoundRobinArbiter arb(64);
    EXPECT_DEATH(arb.resize(65), "at most 64 requestors");
}

} // namespace
} // namespace tenoc
