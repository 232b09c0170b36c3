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
 * at the arbiter's pointer.  The O(1) grantMask/grantWords paths the
 * router uses are proven against it below.
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

TEST(Arbiter, GrantWordsFindsRequestorAbove64)
{
    // Regression: the single-word mask path silently dropped
    // requestors 64 and above (concentrated / high-radix routers);
    // the multi-word scan must see them.
    RoundRobinArbiter arb(70);
    std::vector<bool> requests(70, false);
    requests[68] = true;
    std::uint64_t words[2] = {0, std::uint64_t{1} << (68 - 64)};
    EXPECT_EQ(grant(arb, requests), 68u);
    EXPECT_EQ(arb.grantWords(words, 2), 68u);
}

TEST(Arbiter, GrantWordsWrapsAcrossWordBoundary)
{
    // Pointer past the only requestor: the scan must wrap from the
    // tail words back through the head of the pointer's own word.
    RoundRobinArbiter arb(130);
    arb.setPointer(129);
    std::uint64_t words[3] = {std::uint64_t{1} << 3, 0, 0};
    EXPECT_EQ(arb.grantWords(words, 3), 3u);
    // A requestor exactly at the pointer wins outright.
    words[2] = std::uint64_t{1} << (129 - 128);
    EXPECT_EQ(arb.grantWords(words, 3), 129u);
}

TEST(Arbiter, GrantWordsMatchesGrantExhaustively)
{
    // Identical-grants proof: every (random request set, pointer
    // position) pair must grant the same requestor via the reference
    // vector<bool> scan and the word-mask scan — and, for arbiters of
    // at most 64 requestors, the single-word mask grant.
    Rng rng(0xa6b17e5ULL);
    for (const unsigned size :
         {3u, 40u, 64u, 65u, 96u, 128u, 130u, 192u}) {
        RoundRobinArbiter arb(size);
        const unsigned nwords = (size + 63) / 64;
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<bool> requests(size, false);
            std::vector<std::uint64_t> words(nwords, 0);
            const double density =
                trial % 3 == 0 ? 0.02 : (trial % 3 == 1 ? 0.3 : 0.9);
            for (unsigned i = 0; i < size; ++i) {
                if (rng.nextBool(density)) {
                    requests[i] = true;
                    words[i / 64] |= std::uint64_t{1} << (i % 64);
                }
            }
            arb.setPointer(
                static_cast<unsigned>(rng.nextRange(size)));
            const unsigned ref = grant(arb, requests);
            const unsigned wide = arb.grantWords(words.data(), nwords);
            ASSERT_EQ(ref, wide)
                << "size " << size << " pointer " << arb.pointer();
            if (size <= 64) {
                ASSERT_EQ(ref, arb.grantMask(words[0]))
                    << "size " << size << " pointer " << arb.pointer();
            }
            if (ref < size)
                arb.accept(ref); // walk the pointer like iSLIP does
        }
    }
}

} // namespace
} // namespace tenoc
