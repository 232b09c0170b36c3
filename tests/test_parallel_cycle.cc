/**
 * @file
 * Determinism suite for the intra-simulation parallel engine
 * (common/parallel.hh): the phase-parallel MeshNetwork cycle, the
 * sliced DoubleNetwork, and Chip's parallel core ticking must be
 * byte-for-byte identical to serial execution at every thread count.
 *
 * Three layers of coverage:
 *   1. primitives — shardRange partitioning, parallelFor execution
 *      contract (every task exactly once, nested calls fall back
 *      inline), the cycle-thread cap/resolve logic;
 *   2. ActiveSet deferred marks — buffering, merge visibility, and
 *      the word-edge masking of forEachInRange;
 *   3. end-to-end bit-equivalence — seeded network and whole-chip
 *      runs compared across cycleThreads in {1, 2, MAX}, crossed with
 *      the idle-skip scheduler, the invariant checker, fault
 *      injection, single/sliced networks and an attached tracer.
 *
 * Corpus replay under threads rides on test_fuzz_corpus.cc: runDiff's
 * toggle battery now includes cycleThreads=2 shadow runs, so every
 * checked-in repro also executes threaded.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/chip.hh"
#include "accel/chip_config.hh"
#include "accel/experiments.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "noc/activity.hh"
#include "noc/mesh_network.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_sink.hh"

namespace tenoc
{
namespace
{

// --------------------------------------------------------------------
// 1. Primitives
// --------------------------------------------------------------------

TEST(ShardRange, PartitionsContiguouslyAndCompletely)
{
    for (unsigned n : {0u, 1u, 7u, 36u, 256u, 1000u}) {
        for (unsigned shards : {1u, 2u, 3u, 8u, 16u}) {
            unsigned expect_lo = 0;
            for (unsigned s = 0; s < shards; ++s) {
                const auto [lo, hi] =
                    parallel::shardRange(s, n, shards);
                EXPECT_EQ(lo, expect_lo) << n << "/" << shards;
                EXPECT_LE(lo, hi);
                expect_lo = hi;
            }
            EXPECT_EQ(expect_lo, n) << n << "/" << shards;
        }
    }
}

TEST(ShardRange, IsBalanced)
{
    // No shard exceeds ceil(n / shards): static sharding spreads work
    // as evenly as contiguity allows.
    const unsigned n = 1000, shards = 16;
    for (unsigned s = 0; s < shards; ++s) {
        const auto [lo, hi] = parallel::shardRange(s, n, shards);
        EXPECT_LE(hi - lo, (n + shards - 1) / shards);
    }
}

TEST(ParallelFor, RunsEveryTaskExactlyOnce)
{
    for (unsigned tasks : {0u, 1u, 2u, 5u, 16u}) {
        std::vector<std::atomic<unsigned>> hits(tasks);
        for (auto &h : hits)
            h.store(0);
        parallel::parallelFor(tasks, [&](unsigned t) {
            hits[t].fetch_add(1);
        });
        for (unsigned t = 0; t < tasks; ++t)
            EXPECT_EQ(hits[t].load(), 1u) << "task " << t;
    }
}

TEST(ParallelFor, NestedCallsFallBackInline)
{
    // A parallelFor issued from inside a region must not deadlock or
    // drop tasks: the pool is busy, so the inner call runs inline on
    // whichever thread issued it.
    std::atomic<unsigned> total{0};
    parallel::parallelFor(4, [&](unsigned) {
        parallel::parallelFor(3, [&](unsigned) {
            total.fetch_add(1);
        });
    });
    EXPECT_EQ(total.load(), 12u);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        parallel::parallelFor(4, [](unsigned t) {
            if (t == 2)
                throw std::runtime_error("boom");
        }),
        std::runtime_error);
    // The pool must be reusable after a failed region.
    std::atomic<unsigned> ok{0};
    parallel::parallelFor(4, [&](unsigned) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 4u);
}

TEST(ResolveCycleThreads, ClampsAndHonorsCap)
{
    EXPECT_EQ(parallel::resolveCycleThreads(1), 1u);
    EXPECT_EQ(parallel::resolveCycleThreads(4), 4u);
    EXPECT_EQ(parallel::resolveCycleThreads(10000),
              parallel::MAX_CYCLE_THREADS);

    const unsigned prev = parallel::setCycleThreadCap(2);
    EXPECT_EQ(parallel::resolveCycleThreads(8), 2u);
    EXPECT_EQ(parallel::resolveCycleThreads(1), 1u);
    parallel::setCycleThreadCap(prev);
    EXPECT_EQ(parallel::resolveCycleThreads(8), 8u);
}

// --------------------------------------------------------------------
// 2. ActiveSet deferred marks
// --------------------------------------------------------------------

TEST(ActiveSetDeferred, MarksBufferUntilMerge)
{
    ActiveSet set(100);
    set.enableDeferredMarks();
    set.beginDeferred();
    set.mark(3);
    set.mark(64);
    set.mark(99);
    EXPECT_FALSE(set.test(3));   // frozen during the phase
    EXPECT_FALSE(set.test(64));
    set.mergeDeferredMarks();
    set.endDeferred();
    EXPECT_TRUE(set.test(3));
    EXPECT_TRUE(set.test(64));
    EXPECT_TRUE(set.test(99));
    EXPECT_EQ(set.popCount(), 3u);
}

TEST(ActiveSetDeferred, AlreadyLiveBitsAreNotRebuffered)
{
    ActiveSet set(100);
    set.enableDeferredMarks();
    set.mark(7); // live mark, outside any phase
    set.beginDeferred();
    set.mark(7); // already visible: fast-out, no buffer entry
    set.mark(8);
    set.mergeDeferredMarks();
    set.endDeferred();
    EXPECT_TRUE(set.test(7));
    EXPECT_TRUE(set.test(8));
    EXPECT_EQ(set.popCount(), 2u);
}

TEST(ActiveSetDeferred, ForEachInRangeMasksWordEdges)
{
    ActiveSet set(200);
    for (unsigned i : {0u, 63u, 64u, 100u, 127u, 128u, 199u})
        set.mark(i);
    // Sub-word range straddling two word boundaries.
    std::vector<unsigned> got;
    set.forEachInRange(63, 129, [&](unsigned i) {
        got.push_back(i);
    });
    EXPECT_EQ(got, (std::vector<unsigned>{63, 64, 100, 127, 128}));
    got.clear();
    set.forEachInRange(0, 63, [&](unsigned i) { got.push_back(i); });
    EXPECT_EQ(got, (std::vector<unsigned>{0}));
    got.clear();
    set.forEachInRange(128, 200, [&](unsigned i) {
        got.push_back(i);
    });
    EXPECT_EQ(got, (std::vector<unsigned>{128, 199}));
}

// --------------------------------------------------------------------
// 3. End-to-end bit-equivalence
// --------------------------------------------------------------------

/** Accepts everything, keeps nothing. */
struct DropSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

void
expectAccumulatorsEqual(const Accumulator &a, const Accumulator &b)
{
    EXPECT_EQ(a.count(), b.count()) << a.name();
    EXPECT_EQ(a.sum(), b.sum()) << a.name();
    EXPECT_EQ(a.min(), b.min()) << a.name();
    EXPECT_EQ(a.max(), b.max()) << a.name();
}

void
expectHistogramsEqual(const Histogram &a, const Histogram &b)
{
    EXPECT_EQ(a.count(), b.count()) << a.name();
    EXPECT_EQ(a.mean(), b.mean()) << a.name();
    EXPECT_EQ(a.buckets(), b.buckets()) << a.name();
}

void
expectStatsEqual(const NetStats &a, const NetStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.packetsInjected, b.packetsInjected);
    EXPECT_EQ(a.packetsEjected, b.packetsEjected);
    EXPECT_EQ(a.flitsInjected, b.flitsInjected);
    EXPECT_EQ(a.flitsEjected, b.flitsEjected);
    EXPECT_EQ(a.nodeInjectedFlits, b.nodeInjectedFlits);
    EXPECT_EQ(a.nodeEjectedFlits, b.nodeEjectedFlits);
    EXPECT_EQ(a.nodeInjectedBytes, b.nodeInjectedBytes);
    EXPECT_EQ(a.nodeEjectedBytes, b.nodeEjectedBytes);
    expectAccumulatorsEqual(a.totalLatency, b.totalLatency);
    expectAccumulatorsEqual(a.netLatency, b.netLatency);
    expectHistogramsEqual(a.totalLatencyHist, b.totalLatencyHist);
    expectHistogramsEqual(a.queueLatencyHist, b.queueLatencyHist);
    expectHistogramsEqual(a.traversalLatencyHist,
                          b.traversalLatencyHist);
    expectHistogramsEqual(a.serializationLatencyHist,
                          b.serializationLatencyHist);
}

/**
 * Drives `net` with seeded many-to-few requests and few-to-many
 * replies for `cycles`, then drains.  @return the drain cycle.
 */
Cycle
drive(Network &net, std::uint64_t seed, Cycle cycles)
{
    DropSink sink;
    const auto &topo = net.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sink);
    Rng rng(seed);
    Cycle now = 0;
    for (; now < cycles; ++now) {
        for (NodeId core : topo.computeNodes()) {
            if (rng.nextBool(0.04) && net.canInject(core, 0)) {
                auto pkt = makePacket();
                pkt->src = core;
                pkt->dst = rng.pick(topo.mcNodes());
                pkt->op = MemOp::READ_REQUEST;
                pkt->protoClass = 0;
                pkt->sizeFlits = net.packetFlits(MemOp::READ_REQUEST);
                pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
                net.inject(std::move(pkt), now);
            }
        }
        for (NodeId mc : topo.mcNodes()) {
            if (rng.nextBool(0.10) && net.canInject(mc, 1)) {
                auto pkt = makePacket();
                pkt->src = mc;
                pkt->dst = rng.pick(topo.computeNodes());
                pkt->op = MemOp::READ_REPLY;
                pkt->protoClass = 1;
                pkt->sizeFlits = net.packetFlits(MemOp::READ_REPLY);
                pkt->sizeBytes = memOpBytes(MemOp::READ_REPLY);
                net.inject(std::move(pkt), now);
            }
        }
        net.cycle(now);
    }
    while (!net.drained() && now < cycles + 100000)
        net.cycle(now++);
    EXPECT_TRUE(net.drained());
    return now;
}

struct EquivCase
{
    unsigned threads;
    bool idleSkip;
    bool validate;
    bool faults;
    bool sliced;
};

std::string
equivCaseName(const ::testing::TestParamInfo<EquivCase> &info)
{
    const EquivCase &c = info.param;
    std::string name = "t" + std::to_string(c.threads);
    name += c.idleSkip ? "_skip" : "_full";
    if (c.validate)
        name += "_validate";
    if (c.faults)
        name += "_faults";
    name += c.sliced ? "_double" : "_single";
    return name;
}

MeshNetworkParams
equivParams(const EquivCase &c, unsigned threads)
{
    MeshNetworkParams p;
    p.seed = 11;
    p.idleSkip = c.idleSkip;
    p.cycleThreads = threads;
    if (c.validate) {
        p.validate = true;
        p.validateInterval = 16;
    }
    if (c.faults) {
        // Random stalls/freezes exercise the hoisted anyFrozen() gate
        // and the frozen-router handling inside the parallel phases.
        p.faults.linkStallRate = 2e-4;
        p.faults.linkStallDuration = 8;
        p.faults.routerFreezeRate = 1e-4;
        p.faults.routerFreezeDuration = 12;
        p.faults.seed = 77;
    }
    return p;
}

class ParallelCycleEquivalence
    : public ::testing::TestWithParam<EquivCase>
{};

TEST_P(ParallelCycleEquivalence, MatchesSerialExecution)
{
    const EquivCase c = GetParam();
    const auto serial =
        makeMeshNetwork(equivParams(c, 1), c.sliced);
    const auto threaded =
        makeMeshNetwork(equivParams(c, c.threads), c.sliced);
    const Cycle done_serial = drive(*serial, 97, 2000);
    const Cycle done_threaded = drive(*threaded, 97, 2000);
    EXPECT_EQ(done_serial, done_threaded);
    expectStatsEqual(serial->stats(), threaded->stats());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsTogglesSlicing, ParallelCycleEquivalence,
    ::testing::Values(
        // threads=2: scheduler crossings
        EquivCase{2, true, false, false, false},
        EquivCase{2, false, false, false, false},
        EquivCase{2, true, true, false, false},
        EquivCase{2, true, false, true, false},
        EquivCase{2, true, false, false, true},
        EquivCase{2, false, true, true, true},
        // threads=MAX (16 > node count): oversharded shards go empty
        EquivCase{parallel::MAX_CYCLE_THREADS, true, false, false,
                  false},
        EquivCase{parallel::MAX_CYCLE_THREADS, true, true, true,
                  true}),
    equivCaseName);

TEST(ParallelCycleEquivalence, ChipRunIdenticalUnderCoreThreads)
{
    // Whole-chip closed loop: parallel core ticking + parallel network
    // cycles against the serial run, on a single and a sliced config.
    for (auto id : {ConfigId::BASELINE_TB_DOR, ConfigId::CP_CR_DOUBLE}) {
        const auto prof = scaleWorkload(findWorkload("MM"), 0.01);
        ChipParams serial_p = makeConfig(id);
        serial_p.mesh.cycleThreads = 1;
        ChipParams par_p = makeConfig(id);
        par_p.mesh.cycleThreads = 4;
        const auto serial = runWorkload(serial_p, prof);
        const auto par = runWorkload(par_p, prof);
        EXPECT_EQ(serial.ipc, par.ipc) << configName(id);
        EXPECT_EQ(serial.scalarInsts, par.scalarInsts);
        EXPECT_EQ(serial.coreCycles, par.coreCycles);
        EXPECT_EQ(serial.icntCycles, par.icntCycles) << configName(id);
        EXPECT_EQ(serial.memCycles, par.memCycles);
        EXPECT_EQ(serial.avgNetLatency, par.avgNetLatency);
        EXPECT_EQ(serial.avgTotalLatency, par.avgTotalLatency);
        EXPECT_EQ(serial.packetsEjected, par.packetsEjected);
        EXPECT_EQ(serial.dramEfficiency, par.dramEfficiency);
    }
}

/**
 * The hub's Chrome trace as a sorted list of event lines.  Emission
 * order follows the scheduler's batched stage order, which is not part
 * of the trace contract; the event multiset is.
 */
std::vector<std::string>
sortedTraceEvents(telemetry::TelemetryHub &hub)
{
    const auto *sink =
        dynamic_cast<const telemetry::ChromeTraceSink *>(hub.tracer());
    EXPECT_NE(sink, nullptr);
    std::vector<std::string> events;
    if (!sink)
        return events;
    std::ostringstream os;
    sink->write(os);
    std::istringstream lines(os.str());
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find('{') == std::string::npos)
            continue; // the enclosing "[" / "]" lines
        if (line.back() == ',')
            line.pop_back();
        events.push_back(line);
    }
    std::sort(events.begin(), events.end());
    return events;
}

TEST(ParallelCycleEquivalence, TracerChangesNoStatsAtAnyThreadCount)
{
    // Attaching a tracer pins the shards inline but must not move a
    // single sealed stat, and the traced event multiset must not
    // depend on the thread count.
    for (const bool sliced : {false, true}) {
        SCOPED_TRACE(sliced ? "double" : "single");
        std::vector<std::string> events[2];
        for (const unsigned threads : {1u, 2u}) {
            const EquivCase c{threads, true, false, false, sliced};
            const auto plain = makeMeshNetwork(equivParams(c, threads),
                                               sliced);
            const auto traced = makeMeshNetwork(equivParams(c, threads),
                                                sliced);
            telemetry::TelemetryConfig cfg;
            cfg.tracePath = "unused.json"; // enables the sink only
            cfg.traceSampleEvery = 1;
            telemetry::TelemetryHub hub(cfg);
            traced->attachTelemetry(hub);
            const Cycle done_plain = drive(*plain, 97, 1500);
            const Cycle done_traced = drive(*traced, 97, 1500);
            EXPECT_EQ(done_plain, done_traced) << threads << " threads";
            expectStatsEqual(plain->stats(), traced->stats());
            events[threads - 1] = sortedTraceEvents(hub);
        }
        EXPECT_FALSE(events[0].empty());
        EXPECT_EQ(events[0], events[1]);
    }
}

TEST(ParallelCycleEquivalence, SweepCapMakesThreadedNetworksSerial)
{
    // bench/sweep.hh installs a cap of budget/workers; a capped
    // network must resolve to the capped thread count at construction
    // and still produce identical results.
    const unsigned prev = parallel::setCycleThreadCap(1);
    MeshNetworkParams p;
    p.cycleThreads = 8;
    MeshNetwork capped(p);
    parallel::setCycleThreadCap(prev);
    EXPECT_EQ(capped.cycleThreads(), 1u);

    MeshNetworkParams q;
    q.cycleThreads = 8;
    MeshNetwork threaded(q);
    EXPECT_GT(threaded.cycleThreads(), 1u);
    const Cycle done_a = drive(capped, 123, 1500);
    const Cycle done_b = drive(threaded, 123, 1500);
    EXPECT_EQ(done_a, done_b);
    expectStatsEqual(capped.stats(), threaded.stats());
}

} // namespace
} // namespace tenoc
