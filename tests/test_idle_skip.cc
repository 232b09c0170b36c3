/**
 * @file
 * Regression for the idle-skip scheduler: seeded request/reply runs
 * across seeds, the two router organizations ("xy": full routers, so
 * XY routing; "cr": checkerboard half-routers, so CR routing) and the
 * single/double network must reproduce, field for field, the
 * statistics recorded when the reference full-tick scheduler (every
 * router and NI ticked every cycle) still existed and agreed with idle
 * skip.  A mismatch means the activity tracking dropped a component
 * that still had work, or simulated timing changed.
 */

#include <gtest/gtest.h>

#include "net_digest.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{
namespace
{

MeshNetworkParams
netParams(const std::string &organization, std::uint64_t seed)
{
    MeshNetworkParams p;
    p.seed = seed;
    // The invariant checker audits every run and must not perturb a
    // single statistic.
    p.validate = true;
    p.validateInterval = 16;
    if (organization == "cr") {
        p.topo.placement = McPlacement::CHECKERBOARD;
        p.topo.checkerboardRouters = true;
        p.vcsPerClass = 2; // CR needs a lane per routing class
    }
    return p;
}

/** netStatsDigest of each case, recorded while the full-tick and
 *  idle-skip schedulers both existed and agreed on it. */
const std::map<std::string, std::string> RECORDED = {
    {"xy_single_1", "3dcbb64521dd2d06"},
    {"xy_single_42", "f77bc5172dc2afb4"},
    {"xy_single_2024", "11678af741e88253"},
    {"xy_double_1", "a793d19eb07c57a5"},
    {"xy_double_42", "39f1aab8cf461d35"},
    {"xy_double_2024", "7d5bd2ec0fcda6c5"},
    {"cr_single_1", "f5c308cb962c1ae6"},
    {"cr_single_42", "e0324fae2d873b8d"},
    {"cr_single_2024", "c7903120827a9b2c"},
    {"cr_double_1", "080a6f56871746b3"},
    {"cr_double_42", "4280f4ab5b34506e"},
    {"cr_double_2024", "3c1d162a69d4e034"},
};

class IdleSkipEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::string, bool>>
{};

std::string
caseName(
    const ::testing::TestParamInfo<
        std::tuple<std::uint64_t, std::string, bool>> &info)
{
    return std::get<1>(info.param) +
           (std::get<2>(info.param) ? "_double_" : "_single_") +
           std::to_string(std::get<0>(info.param));
}

TEST_P(IdleSkipEquivalence, MatchesFullTick)
{
    const auto [seed, organization, sliced] = GetParam();
    const auto net =
        makeMeshNetwork(netParams(organization, seed), sliced);
    const Cycle done =
        driveRequestsAndReplies(*net, seed * 31 + 7, 3000, 0.04, 0.10);
    expectRecordedDigest(RECORDED, caseName({GetParam(), 0}),
                         netStatsDigest(net->stats(), done));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsRoutingsSlicing, IdleSkipEquivalence,
    ::testing::Combine(
        ::testing::Values<std::uint64_t>(1, 42, 2024),
        ::testing::Values<std::string>("xy", "cr"),
        ::testing::Bool()),
    caseName);

} // namespace
} // namespace tenoc
