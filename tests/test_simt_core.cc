/**
 * @file
 * Tests for the SIMT core model with a scripted memory port.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gpu/simt_core.hh"

namespace tenoc
{
namespace
{

/**
 * Scripted instructions, one per text line: `<warp> A` is an ALU
 * instruction and `<warp> L <addr> ...` a load of those addresses
 * (decimal or 0x hex).  rewind() replays the script.
 */
class ScriptedInstSource : public InstSource
{
  public:
    static std::unique_ptr<ScriptedInstSource>
    fromText(const std::string &text)
    {
        auto src = std::make_unique<ScriptedInstSource>();
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            std::istringstream fields(line);
            unsigned warp = 0;
            std::string op;
            if (!(fields >> warp >> op))
                continue;
            if (warp >= src->insts_.size())
                src->insts_.resize(warp + 1);
            Warp::PendingInst inst;
            inst.isMem = op == "L";
            std::string addr;
            while (fields >> addr)
                inst.lines.push_back(std::stoull(addr, nullptr, 0));
            src->insts_[warp].push_back(std::move(inst));
        }
        src->cursor_.assign(src->insts_.size(), 0);
        return src;
    }

    unsigned
    numWarps() const override
    {
        return static_cast<unsigned>(insts_.size());
    }

    std::uint64_t
    warpLength(unsigned warp) const override
    {
        return insts_[warp].size();
    }

    void
    decode(unsigned warp, Warp::PendingInst &out, Rng &) override
    {
        out = insts_[warp][cursor_[warp]++];
    }

    void
    rewind() override
    {
        std::fill(cursor_.begin(), cursor_.end(), 0);
    }

  private:
    std::vector<std::vector<Warp::PendingInst>> insts_;
    std::vector<std::size_t> cursor_;
};

/** Memory port that answers reads after a fixed delay. */
class FakePort : public CoreMemPort
{
  public:
    bool
    canSendRequests(unsigned n) const override
    {
        return accepting && n <= 64;
    }

    void
    sendRead(Addr line) override
    {
        ++reads;
        pending.push_back(line);
        sent.emplace_back('R', line);
    }

    void
    sendWrite(Addr line) override
    {
        ++writes;
        sent.emplace_back('W', line);
    }

    /** Delivers up to `n` oldest replies to `core`. */
    void
    replyOldest(SimtCore &core, unsigned n)
    {
        while (n-- && !pending.empty()) {
            core.onReadReply(pending.front());
            pending.pop_front();
        }
    }

    bool accepting = true;
    unsigned reads = 0;
    unsigned writes = 0;
    std::deque<Addr> pending;
    /** Every request in send order: 'R' or 'W' and its line. */
    std::vector<std::pair<char, Addr>> sent;
};

KernelProfile
computeProfile()
{
    KernelProfile p;
    p.abbr = "TEST";
    p.warpsPerCore = 4;
    p.warpInstsPerWarp = 100;
    p.memFraction = 0.0; // pure ALU
    return p;
}

TEST(SimtCore, PureComputeRunsAtPeak)
{
    FakePort port;
    SimtCoreParams params;
    const auto prof = computeProfile();
    SimtCore core(0, params, prof, port, 1);
    Cycle t = 0;
    while (!core.done() && t < 100000)
        core.cycle(t++);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.warpInstsIssued(), 400u);
    EXPECT_EQ(core.scalarInsts(), 400u * 32u);
    // One warp instruction per 4 cycles: 1600 cycles + epsilon.
    EXPECT_NEAR(static_cast<double>(t), 1600.0, 20.0);
    EXPECT_EQ(port.reads, 0u);
}

TEST(SimtCore, IssueIntervalFromWidths)
{
    SimtCoreParams p;
    EXPECT_EQ(p.issueInterval(), 4u); // 32-thread warp on 8 lanes
}

TEST(SimtCore, MemoryInstructionsSendReads)
{
    FakePort port;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.memFraction = 0.5;
    prof.l1HitRate = 0.0;
    prof.avgLinesPerMemInst = 1.0;
    prof.maxPendingLines = 64;
    prof.writebackRate = 0.0;
    SimtCore core(0, params, prof, port, 2);
    Cycle t = 0;
    while (!core.done() && t < 1000000) {
        core.cycle(t++);
        port.replyOldest(core, 2);
    }
    ASSERT_TRUE(core.done());
    // About half the 400 instructions are loads that all miss.
    EXPECT_NEAR(static_cast<double>(port.reads), 200.0, 40.0);
    EXPECT_EQ(port.writes, 0u);
    EXPECT_NEAR(static_cast<double>(core.memInsts()),
                static_cast<double>(port.reads), 1.0);
}

TEST(SimtCore, WritebacksEmitWrites)
{
    FakePort port;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.memFraction = 0.5;
    prof.l1HitRate = 0.0;
    prof.writebackRate = 1.0; // every miss evicts dirty
    prof.maxPendingLines = 64;
    SimtCore core(0, params, prof, port, 3);
    Cycle t = 0;
    while (!core.done() && t < 1000000) {
        core.cycle(t++);
        port.replyOldest(core, 4);
    }
    ASSERT_TRUE(core.done());
    EXPECT_EQ(port.writes, port.reads);
}

TEST(SimtCore, LoadsAndStoresAreTimedAlike)
{
    // A store is a write-allocate read, so an all-store kernel sends
    // the reads and writes of an all-load kernel, in the same cycles.
    // Load fractions of 0 and 1 draw nothing from the core's RNG; any
    // other fraction draws, which shifts the instruction stream.
    struct Run
    {
        std::vector<std::pair<char, Addr>> sent;
        std::vector<std::size_t> sentByCycle;
        bool operator==(const Run &) const = default;
    };
    auto run = [](double load_fraction) {
        FakePort port;
        SimtCoreParams params;
        auto prof = computeProfile();
        prof.memFraction = 0.4;
        prof.loadFraction = load_fraction;
        prof.l1HitRate = 0.5;
        prof.writebackRate = 0.3;
        SimtCore core(0, params, prof, port, 21);
        Run r;
        for (Cycle t = 0; !core.done() && t < 1000000; ++t) {
            core.cycle(t);
            if (t % 8 == 0)
                port.replyOldest(core, 1);
            r.sentByCycle.push_back(port.sent.size());
        }
        EXPECT_TRUE(core.done()) << load_fraction;
        EXPECT_GT(port.writes, 0u) << load_fraction;
        r.sent = port.sent;
        return r;
    };
    const Run loads = run(1.0);
    EXPECT_TRUE(run(0.0) == loads);
    EXPECT_FALSE(run(0.5) == loads);
}

TEST(SimtCore, MlpLimitsOutstandingLines)
{
    FakePort port;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.warpsPerCore = 1;
    prof.memFraction = 1.0;
    prof.l1HitRate = 0.0;
    prof.avgLinesPerMemInst = 1.0;
    prof.maxPendingLines = 3;
    prof.writebackRate = 0.0;
    SimtCore core(0, params, prof, port, 4);
    // Never reply: the lone warp must stop after 3 outstanding lines.
    for (Cycle t = 0; t < 1000; ++t)
        core.cycle(t);
    EXPECT_EQ(port.reads, 3u);
    EXPECT_FALSE(core.done());
    // Replies unblock it.
    port.replyOldest(core, 3);
    for (Cycle t = 1000; t < 2000; ++t)
        core.cycle(t);
    EXPECT_GT(port.reads, 3u);
}

TEST(SimtCore, StallsWhenPortRefuses)
{
    FakePort port;
    port.accepting = false;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.warpsPerCore = 1;
    prof.memFraction = 1.0;
    prof.l1HitRate = 0.0;
    SimtCore core(0, params, prof, port, 5);
    for (Cycle t = 0; t < 400; ++t)
        core.cycle(t);
    EXPECT_EQ(port.reads, 0u);
    EXPECT_GT(core.stallSlots(), 50u);
    EXPECT_EQ(core.warpInstsIssued(), 0u);
}

TEST(SimtCore, StalledInstructionIsNotRedrawn)
{
    // The decoded instruction must survive structural stalls: once the
    // port opens, the same memory instruction issues (the instruction
    // mix cannot be biased by congestion).
    FakePort port;
    port.accepting = false;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.warpsPerCore = 1;
    prof.warpInstsPerWarp = 50;
    prof.memFraction = 0.5;
    prof.l1HitRate = 0.0;
    prof.maxPendingLines = 64;
    SimtCore core(0, params, prof, port, 6);
    for (Cycle t = 0; t < 100; ++t)
        core.cycle(t);
    port.accepting = true;
    Cycle t = 100;
    while (!core.done() && t < 100000) {
        core.cycle(t++);
        port.replyOldest(core, 2);
    }
    ASSERT_TRUE(core.done());
    // With 50 insts at memFraction 0.5 expect roughly half memory.
    EXPECT_NEAR(static_cast<double>(core.memInsts()), 25.0, 12.0);
}

TEST(SimtCore, OccupancyLimitedByProfileWarps)
{
    FakePort port;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.warpsPerCore = 64; // clamped to maxWarps = 32
    SimtCore core(0, params, prof, port, 7);
    Cycle t = 0;
    while (!core.done() && t < 1000000)
        core.cycle(t++);
    EXPECT_EQ(core.warpInstsIssued(), 32u * 100u);
}

TEST(SimtCore, DeterministicAcrossRuns)
{
    auto run_once = [] {
        FakePort port;
        SimtCoreParams params;
        auto prof = computeProfile();
        prof.memFraction = 0.3;
        prof.l1HitRate = 0.5;
        prof.maxPendingLines = 8;
        SimtCore core(0, params, prof, port, 42);
        Cycle t = 0;
        while (!core.done() && t < 1000000) {
            core.cycle(t++);
            port.replyOldest(core, 1);
        }
        return std::tuple{t, port.reads, port.writes};
    };
    EXPECT_EQ(run_once(), run_once());
}

/** A profile whose L1 misses every access and never writes back. */
KernelProfile
missingProfile()
{
    auto prof = computeProfile();
    prof.l1HitRate = 0.0;
    prof.writebackRate = 0.0;
    prof.maxPendingLines = 64;
    return prof;
}

TEST(SimtCore, MshrStalledWarpIssuesAfterRelease)
{
    // Four warps of single-line loads on a 2-entry MSHR table: two
    // loads fill it, then every warp stalls until a reply frees an
    // entry.  Each reply must wake the scheduler for the very next
    // issue slot.
    std::string text;
    for (unsigned k = 0; k < 4; ++k) {
        for (unsigned w = 0; w < 4; ++w) {
            text += std::to_string(w) + " L " +
                std::to_string(0x10000 * (w + 1) + 0x40 * k) + "\n";
        }
    }
    FakePort port;
    SimtCoreParams params;
    params.mshrEntries = 2;
    const auto prof = missingProfile();
    SimtCore core(0, params, prof, port, 8,
                  ScriptedInstSource::fromText(text));
    Cycle t = 0;
    for (; t < 400; ++t)
        core.cycle(t);
    EXPECT_EQ(core.warpInstsIssued(), 2u);
    EXPECT_TRUE(core.mshrs().full());
    const std::uint64_t stalls = core.stallSlots();
    EXPECT_GT(stalls, 90u);

    for (std::uint64_t issued = 3; issued <= 16; ++issued) {
        port.replyOldest(core, 1);
        for (unsigned c = 0; c < params.issueInterval(); ++c)
            core.cycle(t++);
        ASSERT_EQ(core.warpInstsIssued(), issued);
    }
    port.replyOldest(core, 2);
    core.cycle(t++);
    EXPECT_TRUE(core.done());
    EXPECT_EQ(port.reads, 16u);
}

TEST(SimtCore, MshrNeedAboveTableSizeWarnsOncePerCore)
{
    // Three-line loads on a 2-entry table can never all allocate: the
    // warps stay parked, and the core says so once.
    const std::string text = "0 L 0x1000 0x2000 0x3000\n"
                             "1 L 0x4000 0x5000 0x6000\n";
    FakePort port;
    SimtCoreParams params;
    params.mshrEntries = 2;
    const auto prof = missingProfile();
    SimtCore core(3, params, prof, port, 9,
                  ScriptedInstSource::fromText(text));
    ::testing::internal::CaptureStderr();
    for (Cycle t = 0; t < 100; ++t)
        core.cycle(t);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(core.warpInstsIssued(), 0u);
    EXPECT_NE(err.find("core 3 warp 0: held memory instruction needs 3 "
                       "new MSHR entries but the table holds 2"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("warp 1"), std::string::npos) << err;
}

TEST(SimtCore, MshrMergeRearmsStalledWarp)
{
    // Warp 1's load touches one line twice, so with one free MSHR it
    // needs two new entries and stalls.  Warp 2 then allocates that
    // line, which turns warp 1's load into a legal merge: that
    // allocate, not a reply, must re-arm warp 1.
    const std::string text = "0 L 0x1000\n"
                             "1 L 0x2000 0x2004\n"
                             "2 L 0x2000\n";
    FakePort port;
    SimtCoreParams params;
    params.mshrEntries = 2;
    const auto prof = missingProfile();
    SimtCore core(0, params, prof, port, 9,
                  ScriptedInstSource::fromText(text));
    for (Cycle t = 0; t < 2 * params.issueInterval(); ++t)
        core.cycle(t);
    EXPECT_EQ(core.warpInstsIssued(), 2u); // warps 0 and 2
    EXPECT_EQ(core.stallSlots(), 0u);
    EXPECT_TRUE(core.mshrs().full());
    for (Cycle t = 2 * params.issueInterval(); t < 100; ++t)
        core.cycle(t);
    EXPECT_EQ(core.warpInstsIssued(), 3u);
    EXPECT_EQ(core.mshrs().waiters(0x2000), 3u);
    EXPECT_EQ(port.reads, 2u); // the merge sent nothing
    port.replyOldest(core, 2);
    core.cycle(100);
    EXPECT_TRUE(core.done());
}

/** Port whose queue space the test sets; each request sent takes one
 *  slot, and every canSendRequests() call is counted. */
class SpacePort : public CoreMemPort
{
  public:
    bool
    canSendRequests(unsigned n) const override
    {
        ++queries;
        return n <= space;
    }

    void
    sendRead(Addr line) override
    {
        take();
        reads.push_back(line);
    }

    void
    sendWrite(Addr) override
    {
        take();
    }

    void
    take()
    {
        if (space == 0)
            ADD_FAILURE() << "request sent into a full queue";
        else
            --space;
    }

    unsigned space = 0;
    mutable unsigned queries = 0;
    std::vector<Addr> reads;
};

/** One load per warp needing 8, 4 and 2 requests (two per line). */
const char *const kNeeds842 = "0 L 0x1000 0x2000 0x3000 0x4000\n"
                              "1 L 0x5000 0x6000\n"
                              "2 L 0x7000\n";

/** Runs one issue slot's worth of core cycles from `t`. */
void
runSlot(SimtCore &core, const SimtCoreParams &params, Cycle &t)
{
    for (unsigned c = 0; c < params.issueInterval(); ++c)
        core.cycle(t++);
}

TEST(SimtCore, PortParkedSlotAsksPortAtMostOnce)
{
    // The first slot asks for 8, 4 and 2 requests and is refused each
    // time.  The parked warps then cost one query per slot (for the
    // smallest refused count), not one per warp.
    SpacePort port;
    SimtCoreParams params;
    const auto prof = missingProfile();
    SimtCore core(0, params, prof, port, 10,
                  ScriptedInstSource::fromText(kNeeds842));
    Cycle t = 0;
    runSlot(core, params, t);
    EXPECT_EQ(port.queries, 3u);
    for (unsigned slot = 0; slot < 20; ++slot) {
        const unsigned before = port.queries;
        runSlot(core, params, t);
        EXPECT_LE(port.queries - before, 1u) << slot;
    }
    EXPECT_EQ(core.warpInstsIssued(), 0u);
    EXPECT_EQ(core.stallSlots(), 21u);

    port.space = 64;
    while (core.warpInstsIssued() < 3 && t < 1000)
        runSlot(core, params, t);
    EXPECT_EQ(core.warpInstsIssued(), 3u);
    EXPECT_EQ(port.reads.size(), 7u);
}

TEST(SimtCore, PortParkedWarpsIssueByNeed)
{
    // Warp 0 needs 4 requests, warp 1 needs 2.  With room for 2 only
    // warp 1 issues; warp 0 waits until the room reaches 4.
    SpacePort port;
    SimtCoreParams params;
    const auto prof = missingProfile();
    SimtCore core(0, params, prof, port, 11,
                  ScriptedInstSource::fromText("0 L 0x1000 0x2000\n"
                                            "1 L 0x3000\n"));
    Cycle t = 0;
    runSlot(core, params, t); // both refused and parked
    EXPECT_EQ(core.warpInstsIssued(), 0u);

    port.space = 2;
    runSlot(core, params, t);
    EXPECT_EQ(core.warpInstsIssued(), 1u);
    EXPECT_EQ(port.reads, std::vector<Addr>{0x3000});
    for (unsigned slot = 0; slot < 10; ++slot)
        runSlot(core, params, t);
    EXPECT_EQ(core.warpInstsIssued(), 1u);

    port.space = 4;
    runSlot(core, params, t);
    EXPECT_EQ(core.warpInstsIssued(), 2u);
    EXPECT_EQ(port.reads, (std::vector<Addr>{0x3000, 0x1000, 0x2000}));
}

TEST(SimtCore, DuplicateLineAtMergeLimitStalls)
{
    // Warps 0-30 leave 31 waiters on line 0x1000; warp 31's load
    // touches that line twice, so it needs two merges where one is
    // left.  It must stall (not overflow the entry) until the refill
    // returns, then allocate the line afresh.
    std::string text;
    for (unsigned w = 0; w < 31; ++w)
        text += std::to_string(w) + " L 0x1000\n";
    text += "31 L 0x1000 0x1004\n";
    FakePort port;
    SimtCoreParams params;
    const auto prof = missingProfile();
    SimtCore core(0, params, prof, port, 13,
                  ScriptedInstSource::fromText(text));
    Cycle t = 0;
    for (; t < 100 * params.issueInterval(); ++t)
        core.cycle(t);
    EXPECT_EQ(core.warpInstsIssued(), 31u);
    EXPECT_EQ(core.mshrs().waiters(0x1000), 31u);
    port.replyOldest(core, 1);
    for (unsigned c = 0; c < params.issueInterval(); ++c)
        core.cycle(t++);
    EXPECT_EQ(core.warpInstsIssued(), 32u);
    EXPECT_EQ(core.mshrs().waiters(0x1000), 2u);
    EXPECT_EQ(port.reads, 2u);
    port.replyOldest(core, 1);
    core.cycle(t++);
    EXPECT_TRUE(core.done());
}

TEST(SimtCore, MshrParkedWarpWaitsForItsNeed)
{
    // Warps 0 and 1 fill a 2-entry table; warp 2 needs two entries.
    // One release leaves it one short, so it is not tried (no port
    // query); it issues in the slot after the second release.
    SpacePort port;
    port.space = 64;
    SimtCoreParams params;
    params.mshrEntries = 2;
    const auto prof = missingProfile();
    SimtCore core(0, params, prof, port, 14,
                  ScriptedInstSource::fromText("0 L 0x1000\n"
                                            "1 L 0x2000\n"
                                            "2 L 0x3000 0x4000\n"));
    Cycle t = 0;
    for (unsigned slot = 0; slot < 3; ++slot)
        runSlot(core, params, t);
    EXPECT_EQ(core.warpInstsIssued(), 2u);
    EXPECT_EQ(port.queries, 3u); // warp 2 passed the port, not the MSHRs

    core.onReadReply(0x1000);
    for (unsigned slot = 0; slot < 10; ++slot)
        runSlot(core, params, t);
    EXPECT_EQ(port.queries, 3u);
    EXPECT_EQ(core.warpInstsIssued(), 2u);

    core.onReadReply(0x2000);
    runSlot(core, params, t);
    EXPECT_EQ(port.queries, 4u);
    EXPECT_EQ(core.warpInstsIssued(), 3u);
    EXPECT_EQ(port.reads,
              (std::vector<Addr>{0x1000, 0x2000, 0x3000, 0x4000}));
}

TEST(SimtCore, MshrSharedLineRecountsNeed)
{
    // Warp 1 needs {0x2000, 0x3000}: two entries where one is free.
    // Warp 2 then allocates 0x2000, filling the table but cutting warp
    // 1's need to one, so warp 1 must issue as soon as the unrelated
    // line 0x1000 is released.
    SpacePort port;
    port.space = 64;
    SimtCoreParams params;
    params.mshrEntries = 2;
    const auto prof = missingProfile();
    SimtCore core(0, params, prof, port, 15,
                  ScriptedInstSource::fromText("0 L 0x1000\n"
                                            "1 L 0x2000 0x3000\n"
                                            "2 L 0x2000\n"));
    Cycle t = 0;
    for (unsigned slot = 0; slot < 10; ++slot)
        runSlot(core, params, t);
    EXPECT_EQ(core.warpInstsIssued(), 2u); // warps 0 and 2
    EXPECT_TRUE(core.mshrs().full());

    core.onReadReply(0x1000);
    runSlot(core, params, t);
    EXPECT_EQ(core.warpInstsIssued(), 3u);
    EXPECT_EQ(core.mshrs().waiters(0x2000), 2u);
    EXPECT_EQ(port.reads,
              (std::vector<Addr>{0x1000, 0x2000, 0x3000}));
}

TEST(SimtCore, MshrMergeFullWaitsForItsLine)
{
    // Warp 0's load touches line 0x1000 32 times (a need of 32 while
    // the line is absent), which leaves its entry no merge.  Warp 1's
    // load of it parks with free entries to spare and must stay parked
    // (untried) through the releases of the unrelated lines of warps 2
    // and 3, then issue once its own line is released.
    std::string text = "0 L";
    for (unsigned k = 0; k < 32; ++k) {
        text += ' ';
        text += std::to_string(0x1000 + 2 * k);
    }
    text += "\n1 L 0x1000\n2 L 0x2000\n3 L 0x3000\n";
    SpacePort port;
    port.space = 1000;
    SimtCoreParams params;
    params.mshrEntries = 32;
    const auto prof = missingProfile();
    SimtCore core(0, params, prof, port, 16,
                  ScriptedInstSource::fromText(text));
    Cycle t = 0;
    for (unsigned slot = 0; slot < 10; ++slot)
        runSlot(core, params, t);
    EXPECT_EQ(core.warpInstsIssued(), 3u); // warps 0, 2 and 3
    EXPECT_EQ(core.mshrs().waiters(0x1000), 32u);
    const unsigned queries = port.queries;

    for (Addr line : {0x2000, 0x3000}) {
        core.onReadReply(line);
        for (unsigned slot = 0; slot < 5; ++slot)
            runSlot(core, params, t);
        EXPECT_EQ(port.queries, queries) << line;
        EXPECT_EQ(core.warpInstsIssued(), 3u) << line;
    }

    core.onReadReply(0x1000);
    runSlot(core, params, t);
    EXPECT_EQ(core.warpInstsIssued(), 4u);
    EXPECT_EQ(port.reads,
              (std::vector<Addr>{0x1000, 0x2000, 0x3000, 0x1000}));
}

TEST(SimtCore, RestartClearsPortParking)
{
    // A core restarted after a launch that parked must try every warp
    // again in its first slot, like a fresh core: three queries, not
    // the parked core's one.  The same holds for warps parked on the
    // MSHRs.
    SimtCoreParams params;
    const auto prof = missingProfile();
    SpacePort port;
    SimtCore core(0, params, prof, port, 12,
                  ScriptedInstSource::fromText(kNeeds842));
    Cycle t = 0;
    runSlot(core, params, t);
    runSlot(core, params, t);
    ASSERT_EQ(port.queries, 4u);

    port.space = 64;
    while (!core.done() && t < 1000) {
        runSlot(core, params, t);
        for (Addr line : port.reads)
            core.onReadReply(line);
        port.reads.clear();
    }
    ASSERT_TRUE(core.done());
    core.restart();
    port.space = 0;
    port.queries = 0;
    runSlot(core, params, t);
    EXPECT_EQ(port.queries, 3u);

    // One MSHR: warp 0 takes it, warps 1 and 2 park on it.
    SimtCoreParams one = params;
    one.mshrEntries = 1;
    SpacePort mport;
    mport.space = 64;
    SimtCore mcore(0, one, prof, mport, 17,
                   ScriptedInstSource::fromText("0 L 0x1000\n"
                                             "1 L 0x2000\n"
                                             "2 L 0x3000\n"));
    Cycle mt = 0;
    runSlot(mcore, one, mt);
    runSlot(mcore, one, mt);
    ASSERT_EQ(mport.queries, 3u);
    runSlot(mcore, one, mt);
    ASSERT_EQ(mport.queries, 3u); // parked warps are not tried

    while (!mcore.done() && mt < 1000) {
        for (Addr line : mport.reads)
            mcore.onReadReply(line);
        mport.reads.clear();
        runSlot(mcore, one, mt);
    }
    ASSERT_TRUE(mcore.done());
    mcore.restart();
    mport.queries = 0;
    runSlot(mcore, one, mt);
    runSlot(mcore, one, mt);
    EXPECT_EQ(mport.queries, 3u);
}

} // namespace
} // namespace tenoc
