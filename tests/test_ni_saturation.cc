/**
 * @file
 * Network-interface saturation equivalence suite.
 *
 * Drives every NI hard from both ends at once — injection offered
 * well above network capacity (class queues pinned at injQueueCap,
 * canInject refusing most cycles) and ejection throttled by a sink
 * that accepts only a fraction of reservation attempts (ejection
 * buffers pinned at ejBufferFlits, credits withheld upstream) — and
 * requires bit-identical final statistics across the scheduler
 * toggles: idle-skip, channel slicing (DoubleNetwork),
 * arrival-scheduled channels, and link-stall fault injection.  The slab-backed NI rings spend the whole run at their
 * capacity bounds, so any ring-arithmetic or early-out-counter bug
 * diverges a counter here.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{
namespace
{

/**
 * Accepts one reservation in `stride`, refusing the rest.  One sink
 * per node: each NI issues its reservation attempts in a
 * deterministic per-NI order, so a per-node counter throttles
 * identically whatever the schedulers skip.
 */
struct ThrottledSink : PacketSink
{
    explicit ThrottledSink(unsigned stride = 3) : stride_(stride) {}

    bool
    tryReserve(const Packet &) override
    {
        return calls_++ % stride_ == 0;
    }

    void deliver(PacketPtr, Cycle) override {}

    unsigned stride_;
    std::uint64_t calls_ = 0;
};

struct RunResult
{
    Cycle drainedAt = 0;
    NetStats stats;
};

/**
 * Saturating request/reply driver: offered load far above the
 * many-to-few capacity bound, every sink throttled 1-in-3.
 */
RunResult
saturate(const MeshNetworkParams &params, bool sliced,
         std::uint64_t seed, Cycle cycles)
{
    const auto net = makeMeshNetwork(params, sliced);
    const auto &topo = net->topology();
    std::vector<ThrottledSink> sinks(topo.numNodes());
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net->setSink(n, &sinks[n]);

    Rng rng(seed);
    Cycle now = 0;
    std::uint64_t refused = 0;
    for (; now < cycles; ++now) {
        for (NodeId core : topo.computeNodes()) {
            if (!rng.nextBool(0.6))
                continue;
            if (!net->canInject(core, 0)) {
                ++refused; // saturation evidence, not an error
                continue;
            }
            auto pkt = makePacket();
            pkt->src = core;
            pkt->dst = rng.pick(topo.mcNodes());
            pkt->op = MemOp::READ_REQUEST;
            pkt->protoClass = 0;
            pkt->sizeFlits = net->packetFlits(MemOp::READ_REQUEST);
            pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
            net->inject(std::move(pkt), now);
        }
        for (NodeId mc : topo.mcNodes()) {
            if (!rng.nextBool(0.5) || !net->canInject(mc, 1))
                continue;
            auto pkt = makePacket();
            pkt->src = mc;
            pkt->dst = rng.pick(topo.computeNodes());
            pkt->op = MemOp::READ_REPLY;
            pkt->protoClass = 1;
            pkt->sizeFlits = net->packetFlits(MemOp::READ_REPLY);
            pkt->sizeBytes = memOpBytes(MemOp::READ_REPLY);
            net->inject(std::move(pkt), now);
        }
        net->cycle(now);
    }
    // The workload must actually have saturated the injection queues.
    EXPECT_GT(refused, 0u);

    while (!net->drained() && now < cycles + 200000)
        net->cycle(now++);
    EXPECT_TRUE(net->drained());

    RunResult r;
    r.drainedAt = now;
    r.stats = net->stats();
    return r;
}

void
expectRunsEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.drainedAt, b.drainedAt);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.packetsInjected, b.stats.packetsInjected);
    EXPECT_EQ(a.stats.packetsEjected, b.stats.packetsEjected);
    EXPECT_EQ(a.stats.flitsInjected, b.stats.flitsInjected);
    EXPECT_EQ(a.stats.flitsEjected, b.stats.flitsEjected);
    EXPECT_EQ(a.stats.nodeInjectedFlits, b.stats.nodeInjectedFlits);
    EXPECT_EQ(a.stats.nodeEjectedFlits, b.stats.nodeEjectedFlits);
    EXPECT_EQ(a.stats.totalLatency.count(),
              b.stats.totalLatency.count());
    EXPECT_EQ(a.stats.totalLatency.sum(), b.stats.totalLatency.sum());
    EXPECT_EQ(a.stats.netLatency.sum(), b.stats.netLatency.sum());
    EXPECT_EQ(a.stats.totalLatencyHist.buckets(),
              b.stats.totalLatencyHist.buckets());
    EXPECT_EQ(a.stats.queueLatencyHist.buckets(),
              b.stats.queueLatencyHist.buckets());
}

MeshNetworkParams
baseParams(std::uint64_t seed)
{
    MeshNetworkParams p;
    p.seed = seed;
    p.validate = true;
    p.validateInterval = 32;
    return p;
}

constexpr Cycle SAT_CYCLES = 1200;

/** (seed, idleSkip, sliced, faults) toggle cross. */
class NiSaturationEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, bool, bool, bool>>
{};

TEST_P(NiSaturationEquivalence, MatchesReferenceScheduler)
{
    const auto [seed, idle_skip, sliced, faults] = GetParam();

    MeshNetworkParams ref = baseParams(seed);
    ref.idleSkip = false;
    if (faults) {
        ref.faults.linkStallRate = 1e-3;
        ref.faults.linkStallDuration = 8;
        ref.faults.seed = seed * 7 + 1;
    }

    MeshNetworkParams toggled = ref;
    toggled.idleSkip = idle_skip;

    // Slicing is a topology axis, not a results-preserving toggle
    // (a DoubleNetwork is two half-width physical networks), so the
    // reference run shares it and only the scheduler toggles differ.
    const RunResult a = saturate(ref, sliced, seed, SAT_CYCLES);
    const RunResult b = saturate(toggled, sliced, seed, SAT_CYCLES);
    expectRunsEqual(a, b);
}

std::string
satCaseName(const ::testing::TestParamInfo<
            std::tuple<std::uint64_t, bool, bool, bool>> &info)
{
    const auto [seed, idle_skip, sliced, faults] = info.param;
    // "_t1" marks the one-thread (serial) cycle every instance runs; it
    // keeps the instance names stable.
    std::string s = idle_skip ? "skip" : "full";
    s += sliced ? "_double_t1" : "_single_t1";
    s += faults ? "_faults" : "_clean";
    s += "_" + std::to_string(seed);
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    ToggleCross, NiSaturationEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(11),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    satCaseName);

TEST(NiSaturation, ArrivalSleepInvariantUnderBackpressure)
{
    // The wheel vs mark-on-send cross, separately, under the same
    // saturating workload: ejection backpressure keeps matured flits
    // parked in channels for many cycles, exercising the readInputs
    // keep-bit path far harder than free-flowing traffic.
    MeshNetworkParams p = baseParams(13);
    p.arrivalSleep = false;
    const RunResult off = saturate(p, false, 13, SAT_CYCLES);
    p.arrivalSleep = true;
    const RunResult on = saturate(p, false, 13, SAT_CYCLES);
    expectRunsEqual(off, on);
}

TEST(NiSaturation, McMultiPortRouters)
{
    // Multi-port MC routers give NIs uneven port counts; the slab's
    // per-NI base offsets must keep every ring in bounds at capacity.
    MeshNetworkParams p = baseParams(17);
    p.mcInjPorts = 2;
    p.mcEjPorts = 2;
    p.arrivalSleep = false;
    const RunResult off = saturate(p, false, 17, SAT_CYCLES);
    p.arrivalSleep = true;
    const RunResult on = saturate(p, false, 17, SAT_CYCLES);
    expectRunsEqual(off, on);
}

} // namespace
} // namespace tenoc
