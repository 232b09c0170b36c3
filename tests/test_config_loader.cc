/**
 * @file
 * Tests for building ChipParams from dotted-key Configs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "accel/chip_config.hh"

#ifndef TENOC_CONFIGS_DIR
#error "TENOC_CONFIGS_DIR must point at configs/"
#endif

namespace tenoc
{
namespace
{

TEST(ConfigLoader, DefaultsToBaseline)
{
    Config cfg;
    const auto p = chipParamsFromConfig(cfg);
    const auto ref = makeConfig(ConfigId::BASELINE_TB_DOR);
    EXPECT_EQ(p.mesh.flitBytes, ref.mesh.flitBytes);
    EXPECT_EQ(p.mesh.topo.checkerboardRouters,
              ref.mesh.topo.checkerboardRouters);
    EXPECT_EQ(p.netKind, NetKind::MESH);
}

TEST(ConfigLoader, EverySampleConfigLoads)
{
    // The shipped configs/*.cfg must stay loadable: a key retired from
    // the loader but left in a sample would otherwise fail only when a
    // user runs it.
    unsigned loaded = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(TENOC_CONFIGS_DIR)) {
        if (entry.path().extension() != ".cfg")
            continue;
        SCOPED_TRACE(entry.path().filename().string());
        std::ifstream in(entry.path());
        ASSERT_TRUE(in) << "unreadable sample config";
        std::ostringstream text;
        text << in.rdbuf();
        Config cfg;
        EXPECT_GT(cfg.parseText(text.str()), 0u);
        const ChipParams p = chipParamsFromConfig(cfg);
        EXPECT_GE(p.mesh.topo.rows, 2u);
        ++loaded;
    }
    EXPECT_GE(loaded, 3u);
}

TEST(ConfigLoader, BaseNames)
{
    EXPECT_EQ(configIdFromName("baseline"),
              ConfigId::BASELINE_TB_DOR);
    EXPECT_EQ(configIdFromName("2x"), ConfigId::TB_DOR_2X);
    EXPECT_EQ(configIdFromName("perfect"), ConfigId::PERFECT);
    EXPECT_EQ(configIdFromName("cp-cr"), ConfigId::CP_CR_4VC);
    EXPECT_EQ(configIdFromName("thr-eff"),
              ConfigId::THROUGHPUT_EFFECTIVE);
    EXPECT_EQ(configIdFromName("cp-cr-2p"),
              ConfigId::CP_CR_2INJ_SINGLE);
}

TEST(ConfigLoader, OverridesApply)
{
    Config cfg;
    cfg.parseText(
        "base = cp-cr\n"
        "noc.flitBytes = 32\n"
        "noc.mcInjPorts = 2\n"
        "noc.vcDepth = 16\n"
        "clk.coreMhz = 1000\n"
        "dram.banks = 4\n"
        "sim.seed = 99\n");
    const auto p = chipParamsFromConfig(cfg);
    EXPECT_EQ(p.mesh.flitBytes, 32u);
    EXPECT_EQ(p.mesh.mcInjPorts, 2u);
    EXPECT_EQ(p.mesh.vcDepth, 16u);
    EXPECT_DOUBLE_EQ(p.coreClockMhz, 1000.0);
    EXPECT_EQ(p.mc.dram.timing.numBanks, 4u);
    EXPECT_TRUE(p.mesh.topo.checkerboardRouters); // so CR
}

TEST(ConfigLoader, PlacementStrings)
{
    Config cfg;
    cfg.set("noc.placement", "checkerboard");
    EXPECT_EQ(chipParamsFromConfig(cfg).mesh.topo.placement,
              McPlacement::CHECKERBOARD);
    cfg.set("noc.placement", "top-bottom");
    EXPECT_EQ(chipParamsFromConfig(cfg).mesh.topo.placement,
              McPlacement::TOP_BOTTOM);
}

TEST(ConfigLoader, SlicingToggle)
{
    Config cfg;
    cfg.set("base", "thr-eff");
    EXPECT_EQ(chipParamsFromConfig(cfg).netKind, NetKind::DOUBLE);
    cfg.set("noc.sliced", false);
    EXPECT_EQ(chipParamsFromConfig(cfg).netKind, NetKind::MESH);
}

TEST(ConfigLoader, McCountPropagatesToInterleaving)
{
    Config cfg;
    cfg.set("noc.rows", 8);
    cfg.set("noc.cols", 8);
    cfg.set("noc.mcs", 16);
    const auto p = chipParamsFromConfig(cfg);
    EXPECT_EQ(p.mesh.topo.numMcs, 16u);
    EXPECT_EQ(p.mc.numChannels, 16u);
}

TEST(ConfigLoaderDeath, UnknownKeyIsFatal)
{
    // A typo, and keys of retired non-mesh topologies, which must fail
    // instead of running as a plain mesh.
    const std::pair<const char *, const char *> unknown[] = {
        {"noc.flitbytes", "32"}, // wrong capitalization
        {"noc.topology", "torus"},
        {"noc.concentration", "2"}};
    for (const auto &[key, value] : unknown) {
        Config cfg;
        cfg.set(key, value);
        EXPECT_EXIT(chipParamsFromConfig(cfg),
                    ::testing::ExitedWithCode(1),
                    std::string("unknown configuration key '") + key);
    }
}

TEST(ConfigLoaderDeath, NegativeUnsignedIsFatal)
{
    Config cfg;
    cfg.set("noc.vcDepth", "-1");
    EXPECT_EXIT(chipParamsFromConfig(cfg), ::testing::ExitedWithCode(1),
                "'noc.vcDepth' must be a non-negative integer");
}

TEST(ConfigLoaderDeath, UnsignedPast32BitsIsFatal)
{
    // 2^32 + 6: a plain cast to unsigned would run a 6-row mesh.
    Config cfg;
    cfg.set("noc.rows", "4294967302");
    EXPECT_EXIT(chipParamsFromConfig(cfg), ::testing::ExitedWithCode(1),
                "'noc.rows' value 4294967302 exceeds the 32-bit");
}

TEST(ConfigLoaderDeath, UnknownBaseIsFatal)
{
    Config cfg;
    cfg.set("base", "bogus");
    EXPECT_EXIT(chipParamsFromConfig(cfg),
                ::testing::ExitedWithCode(1), "unknown base");
}

TEST(ConfigLoaderDeath, UnknownPlacementIsFatal)
{
    Config cfg;
    cfg.set("noc.placement", "diagonal");
    EXPECT_EXIT(chipParamsFromConfig(cfg),
                ::testing::ExitedWithCode(1), "unknown placement");
}

} // namespace
} // namespace tenoc
