/**
 * @file
 * Tests for the named experiment configurations (Table V).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "accel/chip_config.hh"
#include "noc/golden/diff.hh"

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

TEST(ChipConfigDeath, MeshPastNodeIdsIsFatal)
{
    // rows x cols used to be a 32-bit product: 65537 x 65537 wrapped
    // to 131,073 nodes and the MC placement wrote past the router-kind
    // table (SIGSEGV), and 65536 x 65536 wrapped to "0 nodes total".
    Config wrap;
    wrap.set("noc.rows", 65537u);
    wrap.set("noc.cols", 65537u);
    EXPECT_EXIT(chipParamsFromConfig(wrap), ::testing::ExitedWithCode(1),
                "a 65537x65537 mesh has 4295098369 nodes");
    Config zero;
    zero.set("noc.rows", 65536u);
    zero.set("noc.cols", 65536u);
    EXPECT_EXIT(chipParamsFromConfig(zero), ::testing::ExitedWithCode(1),
                "a 65536x65536 mesh has 4294967296 nodes");
}

TEST(ChipConfigDeath, NoMcsIsFatal)
{
    // Interleaving addresses over 0 memory channels divided by zero
    // (SIGFPE); a perfect network's terminals sit on the mesh too.
    for (const char *base : {"baseline", "perfect"}) {
        Config cfg;
        cfg.set("base", base);
        cfg.set("noc.mcs", 0u);
        EXPECT_EXIT(chipParamsFromConfig(cfg),
                    ::testing::ExitedWithCode(1), "noc.mcs=0")
            << base;
    }
}

TEST(ChipConfigDeath, HarnessOnlyKeysAreUnknown)
{
    // The fuzz harness's own keys give the chip no option.
    for (const char *key :
         {"noc.protoClasses", "traffic.rate", "traffic.genCycles"}) {
        Config cfg;
        cfg.set(key, "1");
        EXPECT_EXIT(chipParamsFromConfig(cfg),
                    ::testing::ExitedWithCode(1),
                    std::string("unknown configuration key '") + key);
    }
}

TEST(ConfigAgreementDeath, ParseRejectsGarbage)
{
    // Retired keys and malformed numbers: the chip reader and the fuzz
    // harness reader both die, naming the key.  These numbers used to
    // wrap (-1 -> 4294967295, 4294967302 -> 6) or drop the junk
    // (8abc -> 8) in the harness's own parser.
    const std::pair<const char *, const char *> garbage[] = {
        {"noc.topology = torus", "unknown configuration key"},
        {"noc.concentration = 2", "unknown configuration key"},
        {"noc.agePriority = 0", "unknown configuration key"},
        {"noc.routing = xy", "unknown configuration key"},
        {"noc.channelLatency = 1", "unknown configuration key"},
        {"noc.rows = -1", "'noc.rows' must be a non-negative integer"},
        {"noc.vcDepth = 8abc", "'noc.vcDepth' has non-integer value"},
        {"noc.cols = 4294967302",
         "'noc.cols' value 4294967302 exceeds the 32-bit"},
        {"noc.rows = banana", "'noc.rows' has non-integer value"},
        {"noc.sliced = 2", "'noc.sliced' has non-boolean value"},
    };
    for (const auto &[text, why] : garbage) {
        Config cfg;
        cfg.parseText(text);
        EXPECT_EXIT(chipParamsFromConfig(cfg),
                    ::testing::ExitedWithCode(1), why)
            << text;
        EXPECT_EXIT(diffConfigFromConfig(cfg),
                    ::testing::ExitedWithCode(1), why)
            << text;
    }
}

TEST(ConfigAgreementDeath, IllegalMeshesAreRefusedEverywhere)
{
    // Legal syntax, illegal mesh: the chip reader, the fuzz harness
    // reader and meshParamsError all refuse it, for the same reason.
    const std::pair<const char *, const char *> illegal[] = {
        {"noc.rows = 65537\nnoc.cols = 65537", "4295098369 nodes"},
        {"noc.rows = 65536\nnoc.cols = 65536", "4294967296 nodes"},
        {"noc.rows = 1", "at least 2x2"},
        {"noc.mcs = 0", "noc.mcs=0"},
        {"noc.mcs = 36", "at least one compute node"},
        {"noc.mcs = 13", "top/bottom placement fits at most 12"},
        {"noc.placement = checkerboard\nnoc.mcs = 19",
         "only 18 half-router cells"},
        // Top-bottom MCs land on full-router cells.
        {"noc.halfRouters = 1", "not on a half-router cell"},
        // (4 + 7) inputs x 2 protocol x 3 lanes: two protocol classes
        // make every chip count even, so 66 is the least past 64.
        {"noc.mcInjPorts = 7\nnoc.vcsPerClass = 3", "= 66 input VCs"},
        {"noc.mcEjPorts = 61", "noc.mcEjPorts=61 = 65"},
        {"noc.vcDepth = 65536", "noc.vcDepth=65536 exceeds 65535"},
        {"noc.vcsPerClass = 0", "noc.vcsPerClass must be >= 1"},
        {"noc.sliced = 1\nnoc.flitBytes = 15", "even value >= 2"},
    };
    for (const auto &[text, why] : illegal) {
        Config cfg;
        cfg.parseText(text);
        EXPECT_EXIT(chipParamsFromConfig(cfg),
                    ::testing::ExitedWithCode(1), why)
            << text;
        EXPECT_EXIT(diffConfigFromConfig(cfg),
                    ::testing::ExitedWithCode(1), why)
            << text;
        const std::string err = meshParamsError(
            meshParamsFromConfig(cfg, MeshNetworkParams{}),
            cfg.getBool("noc.sliced", false));
        EXPECT_NE(err.find(why), std::string::npos) << text << ": " << err;
    }
    // The harness alone sets noc.protoClasses: one protocol class lets
    // it reach exactly 65 input VCs, (4 + 1) inputs x 13 lanes.
    Config one_class;
    one_class.parseText("noc.protoClasses = 1\nnoc.vcsPerClass = 13");
    EXPECT_EXIT(diffConfigFromConfig(one_class),
                ::testing::ExitedWithCode(1), "= 65 input VCs");
    MeshNetworkParams m;
    m.protoClasses = 1;
    m.vcsPerClass = 13;
    EXPECT_NE(meshParamsError(m, false).find("= 65 input VCs"),
              std::string::npos);
    // The traffic keys, which only the harness reads.
    const std::pair<const char *, const char *> traffic[] = {
        {"traffic.rate = 0.02x", "'traffic.rate' has non-numeric value"},
        {"traffic.rate = 1.5", "traffic.rate must lie in \\[0, 1\\]"},
        {"traffic.genCycles = 0", "traffic.genCycles must be >= 1"},
    };
    for (const auto &[text, why] : traffic) {
        Config cfg;
        cfg.parseText(text);
        EXPECT_EXIT(diffConfigFromConfig(cfg),
                    ::testing::ExitedWithCode(1), why)
            << text;
    }
}

TEST(ConfigAgreement, LimitsAreAcceptedEverywhere)
{
    // (4 + 4) inputs x 2 protocol x 4 lanes = 64 input VCs, 4 + 60 = 64
    // outputs and the deepest ring: legal for both readers.
    Config cfg;
    cfg.parseText("noc.vcsPerClass = 4\nnoc.mcInjPorts = 4\n"
                  "noc.mcEjPorts = 60\nnoc.vcDepth = 65535");
    EXPECT_EQ(chipParamsFromConfig(cfg).mesh.vcDepth, 65535u);
    const DiffConfig d = diffConfigFromConfig(cfg);
    EXPECT_EQ(d.mesh.mcEjPorts, 60u);
    EXPECT_EQ(meshParamsError(d.mesh, false), "");
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
