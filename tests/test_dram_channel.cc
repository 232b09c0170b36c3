/**
 * @file
 * Tests for the FR-FCFS GDDR3 channel.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hh"
#include "dram/dram_channel.hh"

namespace tenoc
{
namespace
{

DramChannelParams
params()
{
    return DramChannelParams{};
}

DramRequest
read(Addr local, std::uint64_t tag)
{
    DramRequest r;
    r.localAddr = local;
    r.write = false;
    r.tag = tag;
    return r;
}

DramRequest
write(Addr local, std::uint64_t tag)
{
    DramRequest r = read(local, tag);
    r.write = true;
    return r;
}

/** Runs the channel until `n` requests complete (popping them). */
std::vector<DramRequest>
runUntil(DramChannel &ch, unsigned n, Cycle &now, Cycle limit = 20000)
{
    std::vector<DramRequest> done;
    while (done.size() < n && now < limit) {
        ch.cycle(now);
        while (auto r = ch.popCompleted())
            done.push_back(std::move(*r));
        ++now;
    }
    return done;
}

TEST(DramChannel, SingleReadCompletes)
{
    DramChannel ch(params());
    ch.push(read(0, 1), 0);
    Cycle now = 0;
    const auto done = runUntil(ch, 1, now);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 1u);
    // ACT(0) -> CAS(12) -> data at 12+9+4 = 25.
    EXPECT_NEAR(static_cast<double>(now), 26.0, 3.0);
    EXPECT_TRUE(ch.idle());
    EXPECT_EQ(ch.rowMisses(), 1u);
}

TEST(DramChannel, RowHitsServedFasterThanMisses)
{
    // Four reads in one row vs four reads in different rows of the
    // same bank.
    DramChannel hit_ch(params());
    for (int i = 0; i < 4; ++i)
        hit_ch.push(read(static_cast<Addr>(i) * 64, i), 0);
    Cycle hit_time = 0;
    runUntil(hit_ch, 4, hit_time);
    EXPECT_EQ(hit_ch.rowHits(), 3u);

    DramChannel miss_ch(params());
    for (int i = 0; i < 4; ++i)
        miss_ch.push(read(static_cast<Addr>(i) * 2048 * 8, i), 0);
    Cycle miss_time = 0;
    runUntil(miss_ch, 4, miss_time);
    EXPECT_EQ(miss_ch.rowHits(), 0u);
    EXPECT_LT(hit_time, miss_time);
}

TEST(DramChannel, BankParallelismOverlapsActivates)
{
    // Misses to different banks overlap (tRRD apart); misses to one
    // bank serialize on tRC.
    DramChannel multi(params());
    for (int i = 0; i < 4; ++i)
        multi.push(read(static_cast<Addr>(i) * 2048, i), 0);
    Cycle multi_time = 0;
    runUntil(multi, 4, multi_time);

    DramChannel single(params());
    for (int i = 0; i < 4; ++i)
        single.push(read(static_cast<Addr>(i) * 2048 * 8, i), 0);
    Cycle single_time = 0;
    runUntil(single, 4, single_time);
    EXPECT_LT(multi_time + 20, single_time);
}

TEST(DramChannel, QueueCapacityEnforced)
{
    DramChannel ch(params());
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_TRUE(ch.canAccept());
        ch.push(read(i * 64, i), 0);
    }
    EXPECT_FALSE(ch.canAccept());
    EXPECT_EQ(ch.queueDepth(), 32u);
}

TEST(DramChannel, FrFcfsPrefersRowHitOverOlderMiss)
{
    DramChannel ch(params());
    // Oldest request: bank 0 row 0.  Then bank 0 row 1 (miss), then
    // bank 0 row 0 again (hit once the row is open).
    ch.push(read(0, 1), 0);
    ch.push(read(2048ull * 8, 2), 0); // bank 0, row 1
    ch.push(read(64, 3), 0);          // bank 0, row 0 -> hit
    Cycle now = 0;
    const auto done = runUntil(ch, 3, now);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0].tag, 1u);
    EXPECT_EQ(done[1].tag, 3u); // out-of-order row hit first
    EXPECT_EQ(done[2].tag, 2u);
    EXPECT_GE(ch.rowHits(), 1u);
}

TEST(DramChannel, RowHitOnBankNotReadyIsSkipped)
{
    DramChannel ch(params());
    ch.push(read(2048, 0), 0);      // bank 1, row 0
    ch.push(read(0, 1), 0);         // bank 0, row 0
    ch.push(read(2048 + 64, 2), 0); // bank 1, row 0
    ch.push(read(64, 3), 0);        // bank 0, row 0
    // ACT bank 1 at 0 (ready at tRCD = 12), ACT bank 0 at tRRD = 8
    // (ready at 20); CAS tag 0 at 12, after which bank 1 is ready again
    // at 12 + burst = 16.
    for (Cycle t = 0; t < 16; ++t)
        ch.cycle(t);
    ASSERT_EQ(ch.servedRequests(), 1u);
    EXPECT_EQ(ch.bank(0).activeRow(), 0u);
    EXPECT_FALSE(ch.bank(0).casReady(16));
    EXPECT_TRUE(ch.bank(1).casReady(16));
    // At 16 tag 1 (queue index 0) hits bank 0's open row, but bank 0
    // is not ready: tag 2 (index 1) at bank 1 goes first.
    ch.cycle(16);
    ASSERT_EQ(ch.servedRequests(), 2u);
    const auto &depth = ch.schedStats().reorderDepth;
    EXPECT_EQ(depth.count(), 2u);
    EXPECT_DOUBLE_EQ(depth.sum(), 1.0);
    Cycle now = 17;
    const auto done = runUntil(ch, 4, now);
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done[0].tag, 0u);
    EXPECT_EQ(done[1].tag, 2u);
    EXPECT_EQ(done[2].tag, 1u);
    EXPECT_EQ(done[3].tag, 3u);
    EXPECT_EQ(ch.rowHits(), 2u);
}

TEST(RingQueue, EraseAndIndexMatchDequeAcrossWrapAndGrowth)
{
    // The controller queue erases from the middle; both shift
    // directions, a wrapped head and heap growth must keep FIFO order.
    RingQueue<int, 4> ring;
    std::deque<int> ref;
    Rng rng(5);
    for (int step = 0; step < 5000; ++step) {
        const std::uint64_t op = rng.nextRange(4);
        if (op < 2 || ref.empty()) {
            ring.emplace_back(step);
            ref.push_back(step);
        } else if (op == 2) {
            ring.pop_front();
            ref.pop_front();
        } else {
            const auto i = rng.nextRange(ref.size());
            ring.erase(i);
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ring[i], ref[i]);
    }
}

TEST(DramChannel, ReadWriteTurnaroundCostsTime)
{
    // Alternating reads and writes in an open row pay tRTW/tWTR.
    DramChannel rw(params());
    for (int i = 0; i < 8; ++i) {
        if (i % 2)
            rw.push(write(static_cast<Addr>(i) * 64, i), 0);
        else
            rw.push(read(static_cast<Addr>(i) * 64, i), 0);
    }
    Cycle rw_time = 0;
    runUntil(rw, 8, rw_time);

    DramChannel ro(params());
    for (int i = 0; i < 8; ++i)
        ro.push(read(static_cast<Addr>(i) * 64, i), 0);
    Cycle ro_time = 0;
    runUntil(ro, 8, ro_time);
    EXPECT_GT(rw_time, ro_time + 3 * 8); // several turnaround bubbles
}

TEST(DramChannel, ReturnBufferGatesCas)
{
    auto p = params();
    p.returnBufferCap = 2;
    DramChannel ch(p);
    for (int i = 0; i < 6; ++i)
        ch.push(read(static_cast<Addr>(i) * 64, i), 0);
    // Never pop: after two completions the channel must stop issuing.
    for (Cycle t = 0; t < 500; ++t)
        ch.cycle(t);
    EXPECT_EQ(ch.servedRequests(), 2u);
    // Popping releases the gate.
    Cycle now = 500;
    auto done = runUntil(ch, 6, now);
    EXPECT_EQ(done.size(), 6u);
}

TEST(DramChannel, EfficiencyBetweenZeroAndOne)
{
    DramChannel ch(params());
    for (int i = 0; i < 16; ++i)
        ch.push(read(static_cast<Addr>(i) * 64, i), 0);
    Cycle now = 0;
    runUntil(ch, 16, now);
    EXPECT_GT(ch.efficiency(), 0.2);
    EXPECT_LE(ch.efficiency(), 1.0);
}

TEST(DramChannel, StreamingReachesHighBusUtilization)
{
    // A long row-friendly stream should approach one line per burst.
    DramChannel ch(params());
    Cycle now = 0;
    unsigned pushed = 0;
    unsigned done_count = 0;
    while (done_count < 200 && now < 30000) {
        if (ch.canAccept() && pushed < 240) {
            ch.push(read(static_cast<Addr>(pushed) * 64, pushed), now);
            ++pushed;
        }
        ch.cycle(now);
        while (ch.popCompleted())
            ++done_count;
        ++now;
    }
    ASSERT_EQ(done_count, 200u);
    // 200 lines x 4-cycle bursts = 800 busy cycles minimum.
    const double lines_per_cycle = 200.0 / static_cast<double>(now);
    EXPECT_GT(lines_per_cycle, 0.15);
}

TEST(DramChannelDeath, OverflowPanics)
{
    DramChannel ch(params());
    for (unsigned i = 0; i < 32; ++i)
        ch.push(read(i * 64, i), 0);
    EXPECT_DEATH(ch.push(read(0x8000, 99), 0), "overflow");
}

} // namespace
} // namespace tenoc
