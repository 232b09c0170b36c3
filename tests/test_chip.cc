/**
 * @file
 * Closed-loop integration tests.  Kernels are scaled short so these
 * stay fast; behavioural invariants rather than exact numbers.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "accel/chip.hh"
#include "accel/experiments.hh"
#include "net_digest.hh"

namespace tenoc
{
namespace
{

KernelProfile
quick(const char *abbr, double scale = 0.1)
{
    return scaleWorkload(findWorkload(abbr), scale);
}

TEST(Chip, ComputeBoundWorkloadNearsPeak)
{
    const auto r =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), quick("AES"));
    EXPECT_FALSE(r.timedOut);
    // Peak is 8 scalar IPC per core x 28 cores = 224.
    EXPECT_GT(r.ipc, 200.0);
    EXPECT_LE(r.ipc, 224.0);
    EXPECT_LT(r.mcStallFractionMean, 0.05);
}

TEST(Chip, AllInstructionsExecute)
{
    const auto profile = quick("MM", 0.1);
    const auto r =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), profile);
    EXPECT_EQ(r.scalarInsts,
              profile.totalWarpInsts(28) * 32);
}

TEST(PacketOwnership, DrainedChipRunReturnsEveryPacket)
{
    const std::size_t live = livePackets();
    for (const ConfigId id :
         {ConfigId::BASELINE_TB_DOR, ConfigId::CP_CR_DOUBLE}) {
        const auto r = runWorkload(makeConfig(id), quick("BFS"));
        EXPECT_FALSE(r.timedOut);
        EXPECT_EQ(livePackets(), live);
    }
}

TEST(Chip, DeterministicForSameSeed)
{
    const auto p = makeConfig(ConfigId::BASELINE_TB_DOR, 5);
    const auto a = runWorkload(p, quick("BFS"));
    const auto b = runWorkload(p, quick("BFS"));
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.packetsEjected, b.packetsEjected);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(Chip, PerfectNetworkBeatsBaselineOnHeavyTraffic)
{
    const auto prof = quick("BFS", 0.15);
    const auto base =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto perfect =
        runWorkload(makeConfig(ConfigId::PERFECT), prof);
    EXPECT_GT(perfect.ipc, base.ipc * 1.2);
    EXPECT_EQ(perfect.avgNetLatency, 0.0);
    EXPECT_GT(base.mcStallFractionMean, 0.1); // Fig. 11 behaviour
}

TEST(Chip, ClockDomainRatiosHold)
{
    const auto r =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), quick("AES"));
    EXPECT_NEAR(static_cast<double>(r.coreCycles) /
                    static_cast<double>(r.icntCycles),
                1296.0 / 602.0, 0.05);
    EXPECT_NEAR(static_cast<double>(r.memCycles) /
                    static_cast<double>(r.icntCycles),
                1107.0 / 602.0, 0.05);
}

TEST(Chip, BandwidthLimitedNetworkThrottles)
{
    const auto prof = quick("SCP", 0.15);
    const auto wide = runWorkload(makeBwLimitedConfig(1.6), prof);
    const auto narrow = runWorkload(makeBwLimitedConfig(0.1), prof);
    EXPECT_GT(wide.ipc, narrow.ipc * 1.3);
}

TEST(Chip, CheckerboardConfigRunsCleanly)
{
    const auto r = runWorkload(makeConfig(ConfigId::CP_CR_4VC),
                               quick("KM", 0.12));
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.ipc, 1.0);
}

TEST(Chip, DoubleNetworkRunsCleanly)
{
    const auto r =
        runWorkload(makeConfig(ConfigId::THROUGHPUT_EFFECTIVE),
                    quick("KM", 0.12));
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.ipc, 1.0);
}

TEST(Chip, McInjectionRatioIsManyToFewSkewed)
{
    // Sec. III-D: MCs inject several times more bytes/cycle than
    // cores (6.9x in the paper).
    const auto r = runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR),
                               quick("LIB", 0.15));
    EXPECT_GT(r.mcToCoreInjectionRatio, 3.0);
    EXPECT_LT(r.mcToCoreInjectionRatio, 15.0);
}

TEST(Chip, RunSuiteProducesAllBenchmarks)
{
    // Tiny scale smoke of the experiment driver.
    const auto runs =
        runSuite(makeConfig(ConfigId::BASELINE_TB_DOR), 0.02);
    ASSERT_EQ(runs.size(), 31u);
    for (const auto &r : runs) {
        EXPECT_FALSE(r.result.timedOut) << r.abbr;
        EXPECT_GT(r.result.ipc, 0.0) << r.abbr;
    }
}

TEST(Chip, OneCycleRoutersCutLatencyNotThroughputForCompute)
{
    // The Sec. III-C result in miniature: aggressive routers shrink
    // network latency but barely move a compute-bound workload's IPC.
    const auto prof = quick("AES", 0.1);
    const auto base =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto fast =
        runWorkload(makeConfig(ConfigId::TB_DOR_1CYC), prof);
    EXPECT_LT(fast.avgNetLatency, base.avgNetLatency * 0.8);
    EXPECT_NEAR(fast.ipc / base.ipc, 1.0, 0.05);
}

TEST(Chip, BandwidthHelpsHeavyTrafficMoreThanLatency)
{
    const auto prof = quick("BFS", 0.15);
    const auto base =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto two = runWorkload(makeConfig(ConfigId::TB_DOR_2X), prof);
    const auto fast =
        runWorkload(makeConfig(ConfigId::TB_DOR_1CYC), prof);
    EXPECT_GT(two.ipc / base.ipc, 1.15);
    EXPECT_GT(two.ipc, fast.ipc);
}

TEST(Chip, CheckerboardPlacementHelpsHeavyTraffic)
{
    const auto prof = quick("KM", 0.15);
    const auto tb =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto cp = runWorkload(makeConfig(ConfigId::CP_DOR_2VC), prof);
    EXPECT_GT(cp.ipc, tb.ipc * 1.05);
}

TEST(Chip, MultiPortMcsHelpTheDoubleNetwork)
{
    const auto prof = quick("SCP", 0.15);
    const auto dbl =
        runWorkload(makeConfig(ConfigId::CP_CR_DOUBLE), prof);
    const auto twop =
        runWorkload(makeConfig(ConfigId::CP_CR_DOUBLE_2INJ), prof);
    EXPECT_GT(twop.ipc, dbl.ipc * 1.02);
}

TEST(Chip, SeedChangesResultsOnlySlightly)
{
    const auto prof = quick("MM", 0.1);
    const auto a =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR, 1), prof);
    const auto b =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR, 2), prof);
    EXPECT_NE(a.coreCycles, b.coreCycles); // different randomness...
    EXPECT_NEAR(a.ipc / b.ipc, 1.0, 0.10); // ...same physics
}

TEST(Chip, MultiKernelLaunchesExecuteEverything)
{
    auto prof = quick("MM", 0.05);
    const auto single = runWorkload(
        makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    prof.numKernels = 4;
    const auto multi = runWorkload(
        makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    EXPECT_FALSE(multi.timedOut);
    // Same per-launch work, four launches.
    EXPECT_EQ(multi.scalarInsts, 4 * single.scalarInsts);
    // Launch barriers cost drain time while later launches reuse warm
    // DRAM row state; either way the result stays near the
    // single-launch rate.
    EXPECT_GT(multi.coreCycles, single.coreCycles * 3);
    EXPECT_NEAR(multi.ipc / single.ipc, 1.0, 0.35);
}

TEST(Chip, KernelBarrierExposesNetworkTailLatency)
{
    // With many short launches the drain tails are network-latency
    // sensitive, so a perfect NoC gains more than it does on the
    // single-launch version of the same workload.
    auto prof = quick("LPS", 0.05);
    prof.numKernels = 8;
    const auto base = runWorkload(
        makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto perfect =
        runWorkload(makeConfig(ConfigId::PERFECT), prof);
    EXPECT_GT(perfect.ipc, base.ipc * 1.01);
}

TEST(Chip, EnvScaleParsing)
{
    ::setenv("TENOC_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(envScale(1.0), 0.25);
    // Anything but a whole positive finite number falls back to the
    // default.
    for (const char *bad : {"junk", "0.02x", "inf", "nan", "", "0", "-1"}) {
        ::setenv("TENOC_SCALE", bad, 1);
        EXPECT_DOUBLE_EQ(envScale(1.0), 1.0) << "'" << bad << "'";
    }
    ::unsetenv("TENOC_SCALE");
    EXPECT_DOUBLE_EQ(envScale(0.5), 0.5);
}

/** A chip's result fields and full stat dump as text. */
std::string
chipText(const ChipResult &r, const Chip &chip)
{
    std::ostringstream os;
    os.precision(17);
    os << r.ipc << ' ' << r.scalarInsts << ' ' << r.coreCycles << ' '
       << r.icntCycles << ' ' << r.memCycles << ' ' << r.timedOut << ' '
       << r.mcStallFractionMean << ' ' << r.mcStallFractionMax << ' '
       << r.mcInjectionRate << ' ' << r.avgNetLatency << ' '
       << r.avgTotalLatency << ' ' << r.acceptedBytesPerNode << ' '
       << r.mcToCoreInjectionRatio << ' ' << r.dramEfficiency << ' '
       << r.dramRowHitRate << ' ' << r.packetsEjected << '\n';
    chip.statGroup().dump(os);
    return os.str();
}

/** FNV-1a digest of chipText(). */
std::string
chipDigest(const ChipResult &r, const Chip &chip)
{
    Fnv h;
    h.bytes(chipText(r, chip));
    return h.hex();
}

TEST(Chip, ValidationDoesNotChangeStats)
{
    // The invariant audit only reads network state, so a run with it
    // on ends with the same results and stats as one with it off.
    const std::pair<ConfigId, const char *> runs[] = {
        {ConfigId::BASELINE_TB_DOR, "MM"},
        {ConfigId::CP_CR_DOUBLE, "BFS"},
        {ConfigId::THROUGHPUT_EFFECTIVE, "MM"}};
    for (const auto &[id, kernel] : runs) {
        SCOPED_TRACE(kernel);
        const auto profile = quick(kernel, 0.05);
        auto params = makeConfig(id);
        params.mesh.validate = false;
        Chip plain(params, profile);
        const std::string want = chipText(plain.run(), plain);
        params.mesh.validate = true;
        params.mesh.validateInterval = 16;
        Chip checked(params, profile);
        EXPECT_EQ(chipText(checked.run(), checked), want);
    }
}

/**
 * Recorded digests (tests/chip_digests.txt): one `<run> <16 hex digits>`
 * line per run, `#` lines are comments.
 */
std::map<std::string, std::string>
recordedChipDigests()
{
    std::map<std::string, std::string> digests;
    std::ifstream in(TENOC_CHIP_DIGESTS);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, hex;
        fields >> name >> hex;
        digests[name] = hex;
    }
    return digests;
}

TEST(Chip, MemoryPathDigestsMatchRecorded)
{
    // Eight MSHRs per core make MSHR stalls dominate, so the issue
    // scheduler's MSHR parking, the MSHR table and FR-FCFS all decide
    // the timing; the digests pin it to the recorded simulator.
    // CP_CR_DOUBLE puts the sliced checkerboard mesh in the loop.  The
    // /m64 runs keep the stock table, where MSHR stalls come and go;
    // the /m2 runs keep warps parked on their need.  A BFS load touches
    // 3 or 4 lines, more than 2 entries can ever hold, so under /m2
    // every BFS warp parks on its first load for good and the run ends
    // at the cycle cap; the digest pins that run too.
    const auto recorded = recordedChipDigests();
    unsigned runs = 0;
    auto check = [&](const char *kernel, ConfigId id, const char *config,
                     unsigned seed, unsigned mshrs = 8) {
        const std::string name = std::string(kernel) + "/" + config +
            "/s" + std::to_string(seed) +
            (mshrs == 8 ? "" : "/m" + std::to_string(mshrs));
        auto params = makeConfig(id, seed);
        params.core.mshrEntries = mshrs;
        Chip chip(params, quick(kernel));
        const ChipResult r = chip.run();
        const bool stuck = mshrs == 2 && std::string(kernel) == "BFS";
        EXPECT_EQ(r.timedOut, stuck) << name;
        const auto it = recorded.find(name);
        ++runs;
        ASSERT_NE(it, recorded.end()) << "no recorded digest for " << name
                                      << " (got " << chipDigest(r, chip)
                                      << ")";
        EXPECT_EQ(chipDigest(r, chip), it->second) << name;
    };
    const std::pair<ConfigId, const char *> configs[] = {
        {ConfigId::PERFECT, "PERFECT"},
        {ConfigId::BASELINE_TB_DOR, "BASELINE_TB_DOR"},
        {ConfigId::CP_CR_DOUBLE, "CP_CR_DOUBLE"}};
    for (const auto &[id, config] : configs) {
        for (const char *kernel : {"BFS", "TRA", "RD"}) {
            for (const unsigned seed : {2u, 3u})
                check(kernel, id, config, seed);
        }
    }
    for (const unsigned mshrs : {64u, 2u}) {
        for (const char *kernel : {"BFS", "RD"}) {
            for (const unsigned seed : {2u, 3u}) {
                check(kernel, ConfigId::PERFECT, "PERFECT", seed, mshrs);
            }
        }
    }
    EXPECT_EQ(recorded.size(), runs) << "stale recorded digests";
}

} // namespace
} // namespace tenoc
