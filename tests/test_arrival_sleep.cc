/**
 * @file
 * Whole-network regression for sleeping routers: seeded runs across
 * channel slicing, long links and age priority must reproduce the
 * statistics recorded when wake-on-send channels (a send marks its
 * receiver at once) still existed and agreed with the arrival wheel
 * that the link wheel (noc/link.hh) replaced.
 */

#include <gtest/gtest.h>

#include "net_digest.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{
namespace
{

// --- Whole-network regression ---

MeshNetworkParams
baseParams(std::uint64_t seed)
{
    MeshNetworkParams p;
    p.seed = seed;
    p.validate = true;
    p.validateInterval = 16;
    return p;
}

/** netStatsDigest of each case, recorded while wake-on-send and the
 *  arrival wheel both existed and agreed on it. */
const std::map<std::string, std::string> RECORDED = {
    {"skip_single_t1_3", "dfc763ccea5f87af"},
    {"skip_single_t1_77", "f8d1118c371ce233"},
    {"skip_double_t1_3", "0b4f0e5c0c7110ba"},
    {"skip_double_t1_77", "74e8b534408295d0"},
    {"long_channel_latency", "b21a1de2d5b8c133"},
};

/** Runs `p` under the seeded driver and checks it against RECORDED. */
void
expectRecorded(const MeshNetworkParams &p, bool sliced,
               std::uint64_t seed, const std::string &name)
{
    const auto net = makeMeshNetwork(p, sliced);
    const Cycle done =
        driveRequestsAndReplies(*net, seed * 17 + 3, 2000, 0.05, 0.12);
    expectRecordedDigest(RECORDED, name,
                         netStatsDigest(net->stats(), done));
}

/** (seed, idle skip, sliced). Idle skip is the one scheduler and is
 *  always true; it stays in the tuple so the printed parameters, and
 *  with them the instance names, are unchanged. */
using ArrivalCase = std::tuple<std::uint64_t, bool, bool>;

class ArrivalSleepEquivalence
    : public ::testing::TestWithParam<ArrivalCase>
{};

std::string
arrivalCaseName(const ::testing::TestParamInfo<ArrivalCase> &info)
{
    const auto [seed, idle_skip, sliced] = info.param;
    // "t1" marks the one-thread (serial) cycle every instance runs; it
    // keeps the instance names stable.
    std::string s = idle_skip ? "skip" : "full";
    s += sliced ? "_double_" : "_single_";
    s += "t1_" + std::to_string(seed);
    return s;
}

TEST_P(ArrivalSleepEquivalence, MatchesMarkOnSend)
{
    const auto [seed, idle_skip, sliced] = GetParam();
    ASSERT_TRUE(idle_skip);
    expectRecorded(baseParams(seed), sliced, seed,
                   arrivalCaseName({GetParam(), 0}));
}

INSTANTIATE_TEST_SUITE_P(
    TogglesAndSeeds, ArrivalSleepEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(3, 77),
                       ::testing::Values(true), ::testing::Bool()),
    arrivalCaseName);

TEST(ArrivalSleepEquivalence, LongChannelLatency)
{
    // Multi-cycle links park several entries per link in the wheel.
    MeshNetworkParams p = baseParams(4);
    p.channelLatency = 5;
    expectRecorded(p, false, 4, "long_channel_latency");
}

} // namespace
} // namespace tenoc
