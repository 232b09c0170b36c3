/**
 * @file
 * Network-interface saturation equivalence suite.
 *
 * Drives every NI hard from both ends at once — injection offered
 * well above network capacity (class queues pinned at injQueueCap,
 * canInject refusing most cycles) and ejection throttled by a sink
 * that accepts only a fraction of reservation attempts (ejection
 * buffers pinned at ejBufferFlits, credits withheld upstream) — and
 * requires the final statistics recorded when the reference
 * schedulers (full tick and wake-on-send channels) still existed and
 * agreed with the production one, across channel slicing
 * (DoubleNetwork) and multi-port MC routers.  The slab-backed NI
 * rings spend the whole run at their capacity bounds, so any
 * ring-arithmetic or early-out-counter bug changes a digest here.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "net_digest.hh"
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

/**
 * Saturating request/reply driver: offered load far above the
 * many-to-few capacity bound, every sink throttled 1-in-3.
 * @return the run's netStatsDigest.
 */
std::string
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

    return netStatsDigest(net->stats(), now);
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

/** saturate() digest of each case, recorded while the reference
 *  schedulers existed and agreed with the production one on it. */
const std::map<std::string, std::string> RECORDED = {
    {"single_11", "bff279e301bbe41c"},
    {"double_11", "ae25369b47802794"},
    {"backpressure", "52b4396023c2ceb7"},
    {"mc_multi_port", "0b3e1c8ddc3ca197"},
};

/** (seed, sliced). */
class NiSaturationEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>>
{};

std::string
satCaseName(
    const ::testing::TestParamInfo<std::tuple<std::uint64_t, bool>> &info)
{
    const auto [seed, sliced] = info.param;
    return (sliced ? "double_" : "single_") + std::to_string(seed);
}

TEST_P(NiSaturationEquivalence, MatchesReferenceScheduler)
{
    const auto [seed, sliced] = GetParam();
    expectRecordedDigest(RECORDED, satCaseName({GetParam(), 0}),
                         saturate(baseParams(seed), sliced, seed,
                                  SAT_CYCLES));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSlicing, NiSaturationEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(11),
                       ::testing::Bool()),
    satCaseName);

TEST(NiSaturation, ArrivalSleepInvariantUnderBackpressure)
{
    // Ejection backpressure withholds credits upstream for many
    // cycles, so routers sleep and are woken by credit arrivals far
    // more often than under free-flowing traffic.
    expectRecordedDigest(RECORDED, "backpressure",
                         saturate(baseParams(13), false, 13, SAT_CYCLES));
}

TEST(NiSaturation, McMultiPortRouters)
{
    // Multi-port MC routers give NIs uneven port counts; the slab's
    // per-NI base offsets must keep every ring in bounds at capacity.
    MeshNetworkParams p = baseParams(17);
    p.mcInjPorts = 2;
    p.mcEjPorts = 2;
    expectRecordedDigest(RECORDED, "mc_multi_port",
                         saturate(p, false, 17, SAT_CYCLES));
}

} // namespace
} // namespace tenoc
