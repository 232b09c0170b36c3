/**
 * @file
 * Unit tests for the link stage (noc/link.hh): a flit lands in the
 * receiver's VC ring at the next fire and marks the receiver, a
 * credit lands in the upstream output VC and wakes nobody, a late or
 * first fire delivers everything posted in send order, and a link
 * carries one flit and one credit per cycle.
 *
 * The stage is both the one-cycle channel and the arrival scheduler:
 * the Channel tests check a link's delivery timing, the
 * ArrivalScheduler tests the stage's firing, and the ArrivalChannel
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
    RouterPair pair(pairParams());
    pair.wheel.fire(10);
    pair.wheel.sendFlit(pair.link, flit(), 10);
    // A second fire in the sending cycle delivers nothing.
    pair.wheel.fire(10);
    EXPECT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 0u);
    pair.wheel.fire(11);
    ASSERT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 1u);
    EXPECT_EQ(pair.b.vcFront(DIR_WEST, 0)->enqueueCycle, 11u);
    EXPECT_EQ(pair.b.stageMasks(), pair.b.deriveStageMasks());
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
    // A fire that skips cycles delivers what was posted before the gap.
    RouterPair pair(pairParams());
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
    RouterPair pair(pairParams());
    pair.wheel.fire(4);
    pair.wheel.sendFlit(pair.link, flit(), 4);
    EXPECT_EQ(pair.wheel.scheduled(), 1u);
    EXPECT_EQ(pair.wheel.oldestPost(), 4u);
    pair.wheel.fire(4);
    EXPECT_EQ(pair.wheel.scheduled(), 1u);
    EXPECT_EQ(pair.wheel.firedThrough(), 4u);
    pair.wheel.fire(5);
    EXPECT_EQ(pair.wheel.scheduled(), 0u);
    EXPECT_EQ(pair.wheel.oldestPost(), INVALID_CYCLE);
    EXPECT_EQ(pair.wheel.firedThrough(), 5u);
    EXPECT_EQ(pair.b.vcOccupancy(DIR_WEST, 0), 1u);
}

TEST(LinkWheel, FirstFireSweepsEverything)
{
    // A fresh stage has no last fire: its first fire delivers every
    // entry, oldest first.
    RouterPair pair(pairParams());
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
    RouterPair pair(pairParams());
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
    RouterPair pair(pairParams());
    pair.wheel.fire(10);
    pair.wheel.sendFlit(pair.link, flit(), 10);
    // Mark-on-send would flag the receiver now; the stage must not.
    EXPECT_FALSE(pair.active.test(1));
    pair.wheel.fire(11);
    EXPECT_TRUE(pair.active.test(1));
    EXPECT_FALSE(pair.active.test(0));
}

TEST(LinkWheel, CreditLandsWithoutMarkingIdleRouter)
{
    RouterPair pair(pairParams());
    pair.wheel.fire(10);
    ASSERT_TRUE(pair.a.dropCredit(DIR_EAST, 1)); // as if a flit had left
    pair.wheel.sendCredit(pair.link, 1, 10);
    pair.wheel.fire(10);
    EXPECT_EQ(pair.a.outputCredits(DIR_EAST, 1), 7u);
    pair.wheel.fire(11);
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
