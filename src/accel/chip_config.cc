/**
 * @file
 * Named configuration construction.
 */

#include "accel/chip_config.hh"

#include <iterator>
#include <set>

#include "common/log.hh"
#include "noc/routing.hh"

namespace tenoc
{

const char *
configName(ConfigId id)
{
    switch (id) {
      case ConfigId::BASELINE_TB_DOR: return "TB-DOR (baseline)";
      case ConfigId::TB_DOR_2X: return "TB-DOR 2x-BW";
      case ConfigId::TB_DOR_1CYC: return "TB-DOR 1-cycle routers";
      case ConfigId::PERFECT: return "Perfect NoC";
      case ConfigId::CP_DOR_2VC: return "CP-DOR 2VC";
      case ConfigId::CP_DOR_4VC: return "CP-DOR 4VC";
      case ConfigId::CP_CR_4VC: return "CP-CR 4VC";
      case ConfigId::CP_CR_SINGLE_16B_4VC: return "CP-CR single 16B 4VC";
      case ConfigId::CP_CR_DOUBLE: return "CP-CR double";
      case ConfigId::CP_CR_DOUBLE_2INJ: return "CP-CR double 2-inj";
      case ConfigId::CP_CR_DOUBLE_2EJ: return "CP-CR double 2-ej";
      case ConfigId::CP_CR_DOUBLE_2INJ2EJ:
        return "CP-CR double 2-inj 2-ej";
      case ConfigId::THROUGHPUT_EFFECTIVE:
        return "Throughput-Effective";
      case ConfigId::CP_CR_2INJ_SINGLE:
        return "CP-CR 16B 2-inj (single)";
    }
    return "unknown";
}

ChipParams
makeConfig(ConfigId id, std::uint64_t seed)
{
    ChipParams p;
    p.seed = seed;
    p.mesh.seed = seed * 2654435761ULL + 17;
    p.mesh.topo.rows = 6;
    p.mesh.topo.cols = 6;
    p.mesh.topo.numMcs = 8;
    p.mc.numChannels = 8;

    switch (id) {
      case ConfigId::BASELINE_TB_DOR:
        break;
      case ConfigId::TB_DOR_2X:
        p.mesh.flitBytes = 32;
        break;
      case ConfigId::TB_DOR_1CYC:
        p.mesh.pipelineDepth = 1;
        p.mesh.halfPipelineDepth = 1;
        break;
      case ConfigId::PERFECT:
        p.netKind = NetKind::PERFECT;
        break;
      case ConfigId::CP_DOR_2VC:
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        break;
      case ConfigId::CP_DOR_4VC:
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.vcsPerClass = 2;
        break;
      case ConfigId::CP_CR_4VC:
      case ConfigId::CP_CR_SINGLE_16B_4VC:
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        break;
      case ConfigId::CP_CR_2INJ_SINGLE:
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.mcInjPorts = 2;
        break;
      case ConfigId::CP_CR_DOUBLE:
        p.netKind = NetKind::DOUBLE;
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        break;
      case ConfigId::CP_CR_DOUBLE_2INJ:
      case ConfigId::THROUGHPUT_EFFECTIVE:
        p.netKind = NetKind::DOUBLE;
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.mcInjPorts = 2;
        break;
      case ConfigId::CP_CR_DOUBLE_2EJ:
        p.netKind = NetKind::DOUBLE;
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.mcEjPorts = 2;
        break;
      case ConfigId::CP_CR_DOUBLE_2INJ2EJ:
        p.netKind = NetKind::DOUBLE;
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.mcInjPorts = 2;
        p.mesh.mcEjPorts = 2;
        break;
    }
    return p;
}

double
dramBandwidthFlitsPerIcntCycle(const ChipParams &p)
{
    // 8 MCs x 16 B per memory clock, expressed in interconnect-clock
    // flits (footnote 3 of the paper).
    const double bytes_per_mclk =
        static_cast<double>(p.mc.numChannels) *
        (p.mc.dram.timing.busBytes * 2.0);
    const double bytes_per_icnt =
        bytes_per_mclk * (p.memClockMhz / p.icntClockMhz);
    return bytes_per_icnt / 16.0; // 16-byte flits
}

ChipParams
makeBwLimitedConfig(double dram_bw_fraction, std::uint64_t seed)
{
    ChipParams p = makeConfig(ConfigId::BASELINE_TB_DOR, seed);
    p.netKind = NetKind::BW_LIMITED;
    p.idealFlitsPerCycle =
        dram_bw_fraction * dramBandwidthFlitsPerIcntCycle(p);
    return p;
}

ConfigId
configIdFromName(const std::string &name)
{
    if (name == "baseline" || name == "tb-dor")
        return ConfigId::BASELINE_TB_DOR;
    if (name == "2x")
        return ConfigId::TB_DOR_2X;
    if (name == "1cyc")
        return ConfigId::TB_DOR_1CYC;
    if (name == "perfect")
        return ConfigId::PERFECT;
    if (name == "cp" || name == "cp-dor")
        return ConfigId::CP_DOR_2VC;
    if (name == "cp-dor-4vc")
        return ConfigId::CP_DOR_4VC;
    if (name == "cp-cr")
        return ConfigId::CP_CR_4VC;
    if (name == "double")
        return ConfigId::CP_CR_DOUBLE;
    if (name == "thr-eff")
        return ConfigId::THROUGHPUT_EFFECTIVE;
    if (name == "cp-cr-2p")
        return ConfigId::CP_CR_2INJ_SINGLE;
    tenoc_fatal("unknown base configuration '", name, "'");
}

ChipParams
chipParamsFromConfig(const Config &cfg)
{
    static const std::set<std::string> known = [] {
        std::set<std::string> keys(std::begin(MESH_CONFIG_KEYS),
                                   std::end(MESH_CONFIG_KEYS));
        keys.insert({"base", "noc.sliced", "clk.coreMhz", "clk.icntMhz",
                     "clk.memMhz", "mc.inputQueueCap", "mc.l2HitLatency",
                     "dram.queueCapacity", "dram.banks", "dram.rowBytes",
                     "sim.seed", "sim.maxIcntCycles"});
        return keys;
    }();
    for (const auto &key : cfg.keys()) {
        if (!known.count(key))
            tenoc_fatal("unknown configuration key '", key, "'");
    }

    ChipParams p = makeConfig(
        configIdFromName(cfg.getString("base", "baseline")),
        cfg.getUint("sim.seed", 1));

    p.mesh = meshParamsFromConfig(cfg, p.mesh);
    p.mc.numChannels = p.mesh.topo.numMcs;
    if (cfg.has("noc.sliced")) {
        p.netKind = cfg.getBool("noc.sliced", false)
            ? NetKind::DOUBLE : NetKind::MESH;
    }

    p.coreClockMhz = cfg.getDouble("clk.coreMhz", p.coreClockMhz);
    p.icntClockMhz = cfg.getDouble("clk.icntMhz", p.icntClockMhz);
    p.memClockMhz = cfg.getDouble("clk.memMhz", p.memClockMhz);
    if (p.coreClockMhz <= 0.0 || p.icntClockMhz <= 0.0 ||
        p.memClockMhz <= 0.0) {
        tenoc_fatal("invalid clock config: core/icnt/mem clocks must"
                    " all be positive MHz (got core=", p.coreClockMhz,
                    " icnt=", p.icntClockMhz, " mem=", p.memClockMhz,
                    ")");
    }

    p.mc.inputQueueCap =
        cfg.getUint32("mc.inputQueueCap", p.mc.inputQueueCap);
    p.mc.l2HitLatency = cfg.getUint32("mc.l2HitLatency", p.mc.l2HitLatency);
    p.mc.dram.queueCapacity =
        cfg.getUint32("dram.queueCapacity", p.mc.dram.queueCapacity);
    p.mc.dram.timing.numBanks =
        cfg.getUint32("dram.banks", p.mc.dram.timing.numBanks);
    p.mc.dram.timing.rowBytes =
        cfg.getUint32("dram.rowBytes", p.mc.dram.timing.rowBytes);
    if (p.mc.dram.queueCapacity == 0) {
        tenoc_fatal("invalid DRAM config: 'dram.queueCapacity' must be"
                    " at least 1 (got 0)");
    }
    if (p.mc.dram.timing.numBanks < 1 || p.mc.dram.timing.numBanks > 32) {
        tenoc_fatal("invalid DRAM config: 'dram.banks' must lie in"
                    " [1, 32] (got ", p.mc.dram.timing.numBanks, ")");
    }
    if (p.mc.dram.timing.rowBytes == 0) {
        tenoc_fatal("invalid DRAM config: 'dram.rowBytes' must be at"
                    " least 1 (got 0)");
    }

    p.maxIcntCycles = cfg.getUint("sim.maxIcntCycles",
                                  p.maxIcntCycles);
    // Fail on a mesh that cannot simulate (over 64 input VCs, say) now,
    // naming the keys, rather than when the network is built.  A
    // perfect or BW-limited network builds no routers, but its
    // terminals still sit on the mesh topology.
    MeshNetworkParams checked;
    checked.topo = p.mesh.topo;
    const bool routers =
        p.netKind == NetKind::MESH || p.netKind == NetKind::DOUBLE;
    if (const std::string why = meshParamsError(
            routers ? p.mesh : checked, p.netKind == NetKind::DOUBLE);
        !why.empty())
        tenoc_fatal("invalid network config: ", why);
    return p;
}

MeshAreaSpec
areaSpecOf(const ChipParams &p)
{
    // The area of the mesh the chip builds; a perfect or BW-limited
    // chip is costed as its (unused) baseline mesh.
    const bool sliced = p.netKind == NetKind::DOUBLE;
    const MeshNetworkParams m = sliced ? slicedParams(p.mesh) : p.mesh;
    MeshAreaSpec s;
    s.rows = m.topo.rows;
    s.cols = m.topo.cols;
    s.numMcs = m.topo.numMcs;
    s.subnetworks = sliced ? 2 : 1;
    s.channelBytes = m.flitBytes;
    s.vcs = m.protoClasses * routeClassesOf(m.topo) * m.vcsPerClass;
    s.buffersPerVc = m.vcDepth;
    s.checkerboard = m.topo.checkerboardRouters;
    s.mcInjPorts = m.mcInjPorts;
    s.mcEjPorts = m.mcEjPorts;
    return s;
}

} // namespace tenoc
