/**
 * @file
 * Unit tests for the link wheel (noc/link.hh): a flit lands in the
 * receiver's VC ring on its due cycle and marks the receiver, a
 * credit lands in the upstream output VC and wakes nobody, aliased
 * buckets keep future entries, gap and first-fire sweeps deliver
 * everything due in send order, and a link carries one flit and one
 * credit per cycle.
 *
 * The wheel is both the pipelined channel and the arrival scheduler:
 * the Channel tests check a link's delivery timing, the
 * ArrivalScheduler tests the wheel's firing, and the ArrivalChannel
 * test when a send wakes the receiver.
 */

#include <gtest/gtest.h>

#include "router_pair.hh"

namespace tenoc
{
namespace
{

Router::Params
pairParams()
{
    Router::Params rp;
    rp.vcMap = VcMap{2, 1, 1};
    return rp;
}

/** A one-flit packet's flit on VC 0 with sequence number `seq`. */
Flit
flit(std::uint16_t seq = 0)
{
    Flit f;
    f.seq = seq;
    f.head = f.tail = true;
    return f;
}

TEST(Channel, DeliversAfterLatency)
{
    for (const Cycle latency : {Cycle{1}, Cycle{3}, Cycle{5}}) {
        RouterPair pair(pairParams(), latency);
        pair.wheel.fire(10);
        pair.wheel.sendFlit(pair.link, flit(), 10);
        for (Cycle c = 11; c < 10 + latency; ++c) {
            pair.wheel.fire(c);
            EXPECT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 0u) << c;
        }
        pair.wheel.fire(10 + latency);
        ASSERT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 1u) << latency;
        EXPECT_EQ(pair.b.vcFront(DIR_WEST, 0)->enqueueCycle, 10 + latency);
        EXPECT_EQ(pair.b.stageMasks(), pair.b.deriveStageMasks());
    }
}

TEST(LinkWheel, FlitsOnOneLinkKeepOrder)
{
    RouterPair pair(pairParams());
    pair.wheel.fire(0);
    for (std::uint16_t s = 1; s <= 3; ++s)
        pair.wheel.sendFlit(pair.link, flit(s), s - 1);
    // One late fire delivers all three, oldest first.
    pair.wheel.fire(40);
    ASSERT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 3u);
    std::vector<unsigned> seqs;
    pair.b.forEachBufferedFlit(
        [&](unsigned, unsigned, const Flit &f) { seqs.push_back(f.seq); });
    EXPECT_EQ(seqs, (std::vector<unsigned>{1, 2, 3}));
}

TEST(Channel, LateReceiverStillGetsItems)
{
    // Latency 4 sizes the wheel at 8 buckets; a fire that skips the
    // due cycle by less than a turn walks the skipped buckets.
    RouterPair pair(pairParams(), 4);
    pair.wheel.fire(0);
    pair.wheel.sendFlit(pair.link, flit(9), 0);
    pair.wheel.fire(6);
    ASSERT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 1u);
    EXPECT_EQ(pair.b.vcFront(DIR_WEST, 0)->seq, 9u);
    EXPECT_EQ(pair.b.vcFront(DIR_WEST, 0)->enqueueCycle, 6u);
    EXPECT_EQ(pair.wheel.scheduled(), 0u);
}

TEST(ArrivalScheduler, FiresAtExactCycle)
{
    RouterPair pair(pairParams(), 3);
    pair.wheel.fire(4);
    pair.wheel.sendFlit(pair.link, flit(), 4);
    EXPECT_EQ(pair.wheel.scheduled(), 1u);
    pair.wheel.fire(6);
    EXPECT_EQ(pair.wheel.scheduled(), 1u);
    EXPECT_EQ(pair.wheel.firedThrough(), 6u);
    pair.wheel.fire(7);
    EXPECT_EQ(pair.wheel.scheduled(), 0u);
    EXPECT_EQ(pair.wheel.firedThrough(), 7u);
    EXPECT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 1u);
}

TEST(LinkWheel, AliasedBucketKeepsFutureEntry)
{
    // Latency 4 sizes the wheel at 8 buckets, so flits due at 4 and 12
    // share one.  Firing cycle 4 must deliver only the earlier.
    RouterPair pair(pairParams(), 4);
    pair.wheel.fire(0);
    pair.wheel.sendFlit(pair.link, flit(1), 0);
    pair.wheel.sendFlit(pair.link, flit(2), 8);
    for (Cycle c = 1; c <= 4; ++c)
        pair.wheel.fire(c);
    EXPECT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 1u);
    EXPECT_EQ(pair.wheel.scheduled(), 1u);
    for (Cycle c = 5; c <= 11; ++c)
        pair.wheel.fire(c);
    EXPECT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 1u);
    pair.wheel.fire(12);
    EXPECT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 2u);
    EXPECT_EQ(pair.b.vcFront(DIR_WEST, 0)->seq, 1u);
    EXPECT_EQ(pair.wheel.scheduled(), 0u);
}

TEST(LinkWheel, FirstFireSweepsEverything)
{
    // A fresh wheel has no last-fire history: its first fire sweeps
    // every bucket.
    RouterPair pair(pairParams(), 2);
    pair.wheel.sendFlit(pair.link, flit(1), 0);
    pair.wheel.sendFlit(pair.link, flit(2), 7);
    EXPECT_EQ(pair.wheel.firedThrough(), 0u);
    pair.wheel.fire(9);
    EXPECT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 2u);
    EXPECT_EQ(pair.b.vcFront(DIR_WEST, 0)->seq, 1u);
    EXPECT_EQ(pair.wheel.firedThrough(), 9u);
}

TEST(ArrivalScheduler, GapLargerThanWheelSweepsEverything)
{
    RouterPair pair(pairParams(), 2);
    pair.wheel.fire(1);
    ASSERT_TRUE(pair.a.dropCredit(DIR_EAST, 0)); // as if a flit had left
    pair.wheel.sendFlit(pair.link, flit(1), 1);
    pair.wheel.sendCredit(pair.link, 0, 1);
    pair.wheel.sendFlit(pair.link, flit(2), 5);
    // A driver that skips far ahead must still deliver everything.
    pair.wheel.fire(1000);
    EXPECT_EQ(pair.wheel.scheduled(), 0u);
    EXPECT_EQ(pair.wheel.firedThrough(), 1000u);
    ASSERT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 2u);
    EXPECT_EQ(pair.b.vcFront(DIR_WEST, 0)->seq, 1u);
    EXPECT_EQ(pair.b.vcFront(DIR_WEST, 0)->enqueueCycle, 1000u);
    EXPECT_EQ(pair.a.outputCredits(DIR_EAST, 0), 8u);
}

TEST(ArrivalChannel, SendPostsWakeAtDeliveryCycle)
{
    RouterPair pair(pairParams(), 3);
    pair.wheel.fire(10);
    pair.wheel.sendFlit(pair.link, flit(), 10);
    // Mark-on-send would flag the receiver now; the wheel must not.
    EXPECT_FALSE(pair.active.test(1));
    pair.wheel.fire(12);
    EXPECT_FALSE(pair.active.test(1));
    pair.wheel.fire(13);
    EXPECT_TRUE(pair.active.test(1));
    EXPECT_FALSE(pair.active.test(0));
}

TEST(LinkWheel, CreditLandsWithoutMarkingIdleRouter)
{
    RouterPair pair(pairParams(), 3);
    pair.wheel.fire(10);
    ASSERT_TRUE(pair.a.dropCredit(DIR_EAST, 1)); // as if a flit had left
    pair.wheel.sendCredit(pair.link, 1, 10);
    pair.wheel.fire(12);
    EXPECT_EQ(pair.a.outputCredits(DIR_EAST, 1), 7u);
    pair.wheel.fire(13);
    EXPECT_EQ(pair.a.outputCredits(DIR_EAST, 1), 8u);
    EXPECT_EQ(pair.a.outputCredits(DIR_EAST, 0), 8u);
    // A has no buffered flit a credit could unblock: it stays asleep.
    EXPECT_TRUE(pair.a.empty());
    EXPECT_FALSE(pair.active.test(0));
}

TEST(LinkWheelDeath, TwoFlitsOnOneOutputInOneCycle)
{
    RouterPair pair(pairParams());
    pair.wheel.sendFlit(pair.link, flit(1), 5);
    EXPECT_DEATH(pair.wheel.sendFlit(pair.link, flit(2), 5),
                 "one flit per cycle");
}

TEST(LinkWheelDeath, TwoCreditsOnOneInputInOneCycle)
{
    RouterPair pair(pairParams());
    pair.wheel.sendCredit(pair.link, 0, 5);
    EXPECT_DEATH(pair.wheel.sendCredit(pair.link, 1, 5),
                 "one credit per cycle");
}

} // namespace
} // namespace tenoc
