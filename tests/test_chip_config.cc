/**
 * @file
 * Tests for the named experiment configurations (Table V).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "accel/chip_config.hh"

namespace tenoc
{
namespace
{

const ConfigId kAll[] = {
    ConfigId::BASELINE_TB_DOR, ConfigId::TB_DOR_2X,
    ConfigId::TB_DOR_1CYC, ConfigId::PERFECT, ConfigId::CP_DOR_2VC,
    ConfigId::CP_DOR_4VC, ConfigId::CP_CR_4VC,
    ConfigId::CP_CR_SINGLE_16B_4VC, ConfigId::CP_CR_DOUBLE,
    ConfigId::CP_CR_DOUBLE_2INJ, ConfigId::CP_CR_DOUBLE_2EJ,
    ConfigId::CP_CR_DOUBLE_2INJ2EJ, ConfigId::THROUGHPUT_EFFECTIVE,
    ConfigId::CP_CR_2INJ_SINGLE,
};

TEST(ChipConfig, BaselineMatchesTables)
{
    const auto p = makeConfig(ConfigId::BASELINE_TB_DOR);
    EXPECT_EQ(p.mesh.topo.rows, 6u);
    EXPECT_EQ(p.mesh.topo.cols, 6u);
    EXPECT_EQ(p.mesh.topo.numMcs, 8u);
    EXPECT_EQ(p.mesh.flitBytes, 16u);           // Table III
    EXPECT_EQ(p.mesh.pipelineDepth, 4u);        // 4-stage routers
    EXPECT_EQ(p.mesh.vcDepth, 8u);              // 8 buffers per VC
    EXPECT_EQ(p.mesh.protoClasses * p.mesh.vcsPerClass, 2u); // 2 VCs
    EXPECT_FALSE(p.mesh.topo.checkerboardRouters); // so XY DOR
    EXPECT_EQ(p.mesh.topo.placement, McPlacement::TOP_BOTTOM);
    EXPECT_EQ(p.core.warpSize, 32u);            // Table II
    EXPECT_EQ(p.core.maxWarps, 32u);
    EXPECT_EQ(p.core.mshrEntries, 64u);
    EXPECT_EQ(p.mc.dram.queueCapacity, 32u);
    EXPECT_DOUBLE_EQ(p.coreClockMhz, 1296.0);
    EXPECT_DOUBLE_EQ(p.icntClockMhz, 602.0);
    EXPECT_DOUBLE_EQ(p.memClockMhz, 1107.0);
}

TEST(ChipConfig, TwoXDoublesChannels)
{
    const auto p = makeConfig(ConfigId::TB_DOR_2X);
    EXPECT_EQ(p.mesh.flitBytes, 32u);
}

TEST(ChipConfig, OneCycleRouters)
{
    const auto p = makeConfig(ConfigId::TB_DOR_1CYC);
    EXPECT_EQ(p.mesh.pipelineDepth, 1u);
    EXPECT_EQ(p.mesh.halfPipelineDepth, 1u);
}

TEST(ChipConfig, CheckerboardConfigs)
{
    const auto cr = makeConfig(ConfigId::CP_CR_4VC);
    EXPECT_TRUE(cr.mesh.topo.checkerboardRouters); // so CR
    EXPECT_EQ(cr.mesh.topo.placement, McPlacement::CHECKERBOARD);

    const auto dor4 = makeConfig(ConfigId::CP_DOR_4VC);
    EXPECT_FALSE(dor4.mesh.topo.checkerboardRouters);
    EXPECT_EQ(dor4.mesh.vcsPerClass, 2u);
}

TEST(ChipConfig, ThroughputEffectiveCombinesEverything)
{
    const auto p = makeConfig(ConfigId::THROUGHPUT_EFFECTIVE);
    EXPECT_EQ(p.netKind, NetKind::DOUBLE);
    EXPECT_TRUE(p.mesh.topo.checkerboardRouters); // so CR
    EXPECT_EQ(p.mesh.mcInjPorts, 2u);
    EXPECT_EQ(p.mesh.mcEjPorts, 1u); // ejection ports dropped (Sec. V-E)
}

TEST(ChipConfig, AllConfigsHaveNames)
{
    for (ConfigId id : kAll)
        EXPECT_STRNE(configName(id), "unknown");
}

TEST(ChipConfig, DramBandwidthFootnote3)
{
    // Footnote 3: bisection ratio 0.816 corresponds to N = 12
    // flits/interconnect cycle, i.e. full DRAM bandwidth is ~14.7
    // 16-byte flits per interconnect cycle.
    const auto p = makeConfig(ConfigId::BASELINE_TB_DOR);
    EXPECT_NEAR(dramBandwidthFlitsPerIcntCycle(p), 14.71, 0.05);
    const auto bw = makeBwLimitedConfig(0.816);
    EXPECT_EQ(bw.netKind, NetKind::BW_LIMITED);
    EXPECT_NEAR(bw.idealFlitsPerCycle, 12.0, 0.05);
}

TEST(ChipConfig, AreaSpecsMatchSimulatedConfigs)
{
    // The Table VI spec of each named configuration's mesh, as literal
    // values: a sliced network is two 8-byte subnetworks, and every
    // mesh is 6x6 with 8 MCs and 8-flit VC buffers.
    struct Row
    {
        ConfigId id;
        unsigned subnetworks;
        double channelBytes;
        unsigned vcs;
        bool checkerboard;
        unsigned mcInjPorts, mcEjPorts;
    };
    const Row rows[] = {
        {ConfigId::BASELINE_TB_DOR, 1, 16.0, 2, false, 1, 1},
        {ConfigId::TB_DOR_2X, 1, 32.0, 2, false, 1, 1},
        {ConfigId::TB_DOR_1CYC, 1, 16.0, 2, false, 1, 1},
        {ConfigId::PERFECT, 1, 16.0, 2, false, 1, 1},
        {ConfigId::CP_DOR_2VC, 1, 16.0, 2, false, 1, 1},
        {ConfigId::CP_DOR_4VC, 1, 16.0, 4, false, 1, 1},
        {ConfigId::CP_CR_4VC, 1, 16.0, 4, true, 1, 1},
        {ConfigId::CP_CR_SINGLE_16B_4VC, 1, 16.0, 4, true, 1, 1},
        {ConfigId::CP_CR_DOUBLE, 2, 8.0, 4, true, 1, 1},
        {ConfigId::CP_CR_DOUBLE_2INJ, 2, 8.0, 4, true, 2, 1},
        {ConfigId::CP_CR_DOUBLE_2EJ, 2, 8.0, 4, true, 1, 2},
        {ConfigId::CP_CR_DOUBLE_2INJ2EJ, 2, 8.0, 4, true, 2, 2},
        {ConfigId::THROUGHPUT_EFFECTIVE, 2, 8.0, 4, true, 2, 1},
        {ConfigId::CP_CR_2INJ_SINGLE, 1, 16.0, 4, true, 2, 1},
    };
    ASSERT_EQ(std::size(rows), std::size(kAll));
    for (const Row &r : rows) {
        const MeshAreaSpec s = areaSpecOf(makeConfig(r.id));
        SCOPED_TRACE(configName(r.id));
        EXPECT_EQ(s.rows, 6u);
        EXPECT_EQ(s.cols, 6u);
        EXPECT_EQ(s.numMcs, 8u);
        EXPECT_EQ(s.buffersPerVc, 8u);
        EXPECT_EQ(s.subnetworks, r.subnetworks);
        EXPECT_EQ(s.channelBytes, r.channelBytes);
        EXPECT_EQ(s.vcs, r.vcs);
        EXPECT_EQ(s.checkerboard, r.checkerboard);
        EXPECT_EQ(s.mcInjPorts, r.mcInjPorts);
        EXPECT_EQ(s.mcEjPorts, r.mcEjPorts);
    }
}

TEST(ChipConfig, SeedPropagates)
{
    const auto a = makeConfig(ConfigId::BASELINE_TB_DOR, 7);
    const auto b = makeConfig(ConfigId::BASELINE_TB_DOR, 8);
    EXPECT_NE(a.mesh.seed, b.mesh.seed);
}

TEST(ChipConfigDeath, BadDramGeometryIsFatal)
{
    // Each would otherwise die inside the simulator: a zero row size
    // divides by zero in mapAddress, and the bank count and queue size
    // trip the DRAM channel's constructor asserts.
    const std::pair<const char *, const char *> cases[] = {
        {"dram.rowBytes", "0"},
        {"dram.banks", "0"},
        {"dram.banks", "33"},
        {"dram.queueCapacity", "0"},
    };
    for (const auto &[key, value] : cases) {
        Config cfg;
        cfg.set(key, value);
        const std::string expect = std::string("'") + key + "' must";
        EXPECT_EXIT(chipParamsFromConfig(cfg),
                    ::testing::ExitedWithCode(1), expect)
            << key << "=" << value;
    }
}

TEST(ChipConfigDeath, RouterPastItsLimitsIsFatal)
{
    // A router takes at most 64 input VCs and 64 outputs; larger
    // geometries fail when the config is read, naming the keys.
    Config vcs;
    vcs.set("noc.vcsPerClass", "6");
    vcs.set("noc.mcInjPorts", "2");
    EXPECT_EXIT(chipParamsFromConfig(vcs), ::testing::ExitedWithCode(1),
                "each MC router would have \\(4 \\+ noc.mcInjPorts=2\\)"
                " inputs x \\(2 protocol x 1 routing classes x"
                " noc.vcsPerClass=6\\) VCs = 72 input VCs");
    // CR's two routing classes double the VCs: 5 inputs x 16 = 80.
    Config cr;
    cr.set("base", "cp-cr");
    cr.set("noc.vcsPerClass", "4");
    EXPECT_EXIT(chipParamsFromConfig(cr), ::testing::ExitedWithCode(1),
                "2 routing classes .* = 80 input VCs");
    // Sliced networks are checked too.
    Config sliced;
    sliced.set("base", "thr-eff");
    sliced.set("noc.vcsPerClass", "8");
    EXPECT_EXIT(chipParamsFromConfig(sliced),
                ::testing::ExitedWithCode(1), "input VCs");
    Config outs;
    outs.set("noc.mcEjPorts", "70");
    EXPECT_EXIT(chipParamsFromConfig(outs), ::testing::ExitedWithCode(1),
                "at most 64 outputs, but each MC router would have 4 \\+"
                " noc.mcEjPorts=70 = 74");
}

TEST(ChipConfigDeath, VcDepthAboveRingLimitIsFatal)
{
    // A router record keeps its ring's head and count in 16 bits.
    Config cfg;
    cfg.set("noc.vcDepth", "65536");
    EXPECT_EXIT(chipParamsFromConfig(cfg), ::testing::ExitedWithCode(1),
                "noc.vcDepth=65536 exceeds 65535");
}

TEST(ChipConfig, VcDepthAtRingLimitIsAccepted)
{
    Config cfg;
    cfg.set("noc.vcDepth", "65535");
    EXPECT_EQ(chipParamsFromConfig(cfg).mesh.vcDepth, 65535u);
}

TEST(ChipConfigDeath, RetiredFaultKeyIsFatal)
{
    // Fault injection is gone; a script still setting its keys must
    // fail loudly rather than silently run fault-free.
    Config cfg;
    cfg.set("fault.linkStallRate", "0.001");
    EXPECT_EXIT(chipParamsFromConfig(cfg), ::testing::ExitedWithCode(1),
                "unknown configuration key 'fault.linkStallRate'");
}

/** Expects `cfg` with noc.routing=`routing` to be refused as an
 *  unknown key: the router kind decides the routing (XY on full
 *  routers, CR on half-routers), and a script still setting the
 *  retired key must fail loudly rather than silently run a routing it
 *  did not ask for. */
void
expectRoutingKeyFatal(Config cfg, const char *routing)
{
    cfg.set("noc.routing", routing);
    EXPECT_EXIT(chipParamsFromConfig(cfg), ::testing::ExitedWithCode(1),
                "unknown configuration key 'noc.routing'")
        << routing;
}

TEST(ChipConfigDeath, RetiredRoutingIsFatal)
{
    for (const char *routing : {"o1turn", "romm", "valiant", "dor",
                                "checkerboard"})
        expectRoutingKeyFatal(Config{}, routing);
}

TEST(ChipConfigDeath, DorOnHalfRoutersIsFatal)
{
    // Half-routers lack turns DOR takes, so they always route CR.
    Config cfg;
    cfg.set("noc.halfRouters", "1");
    cfg.set("noc.placement", "checkerboard");
    for (const char *routing : {"xy", "yx"})
        expectRoutingKeyFatal(cfg, routing);
}

TEST(ChipConfigDeath, CrOnFullRoutersIsFatal)
{
    // CR picks its waypoints on the half-router checkerboard, so full
    // routers always route XY.
    expectRoutingKeyFatal(Config{}, "cr");
}

TEST(ChipConfigDeath, RetiredAgePriorityKeyIsFatal)
{
    // Oldest-first switch allocation is gone; a script still setting
    // its key must fail loudly rather than run round-robin silently.
    Config cfg;
    cfg.set("noc.agePriority", "0");
    EXPECT_EXIT(chipParamsFromConfig(cfg), ::testing::ExitedWithCode(1),
                "unknown configuration key 'noc.agePriority'");
}

TEST(ChipConfig, RouterAtItsLimitsIsAccepted)
{
    // 4 + 4 inputs x 2 protocol x 4 lanes: exactly 64 input VCs.
    Config cfg;
    cfg.set("noc.vcsPerClass", "4");
    cfg.set("noc.mcInjPorts", "4");
    auto p = chipParamsFromConfig(cfg);
    EXPECT_EQ(p.mesh.vcsPerClass, 4u);
    EXPECT_EQ(p.mesh.mcInjPorts, 4u);
    // 4 + 60 outputs: exactly 64.
    cfg.set("noc.mcEjPorts", "60");
    EXPECT_EQ(chipParamsFromConfig(cfg).mesh.mcEjPorts, 60u);
    // The perfect network builds no routers.
    Config perfect;
    perfect.set("base", "perfect");
    perfect.set("noc.vcsPerClass", "64");
    EXPECT_EQ(chipParamsFromConfig(perfect).netKind, NetKind::PERFECT);
}

TEST(ChipConfig, DramGeometryLimitsAreAccepted)
{
    Config cfg;
    cfg.set("dram.banks", "32");
    cfg.set("dram.rowBytes", "1");
    cfg.set("dram.queueCapacity", "1");
    const auto p = chipParamsFromConfig(cfg);
    EXPECT_EQ(p.mc.dram.timing.numBanks, 32u);
    EXPECT_EQ(p.mc.dram.timing.rowBytes, 1u);
    EXPECT_EQ(p.mc.dram.queueCapacity, 1u);
    cfg.set("dram.banks", "1");
    EXPECT_EQ(chipParamsFromConfig(cfg).mc.dram.timing.numBanks, 1u);
}

} // namespace
} // namespace tenoc
