/**
 * @file
 * Whole-network regression for sleeping routers: seeded runs with and
 * without channel slicing must reproduce the statistics recorded when
 * wake-on-send channels (a send marks its receiver at once) still
 * existed and agreed with the arrival wheel that the links of
 * noc/link.hh replaced.
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
    {"single_3", "dfc763ccea5f87af"},
    {"single_77", "f8d1118c371ce233"},
    {"double_3", "0b4f0e5c0c7110ba"},
    {"double_77", "74e8b534408295d0"},
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

/** (seed, sliced). */
using ArrivalCase = std::tuple<std::uint64_t, bool>;

class ArrivalSleepEquivalence
    : public ::testing::TestWithParam<ArrivalCase>
{};

std::string
arrivalCaseName(const ::testing::TestParamInfo<ArrivalCase> &info)
{
    const auto [seed, sliced] = info.param;
    return (sliced ? "double_" : "single_") + std::to_string(seed);
}

TEST_P(ArrivalSleepEquivalence, MatchesMarkOnSend)
{
    const auto [seed, sliced] = GetParam();
    expectRecorded(baseParams(seed), sliced, seed,
                   arrivalCaseName({GetParam(), 0}));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSlicing, ArrivalSleepEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(3, 77),
                       ::testing::Bool()),
    arrivalCaseName);

} // namespace
} // namespace tenoc
