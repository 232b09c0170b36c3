/**
 * @file
 * Chip configuration and the named experiment configurations of the
 * paper (Table V abbreviations and Sec. V combinations).
 */

#ifndef TENOC_ACCEL_CHIP_CONFIG_HH
#define TENOC_ACCEL_CHIP_CONFIG_HH

#include <string>

#include "accel/mc_node.hh"
#include "common/config.hh"
#include "area/area_model.hh"
#include "gpu/simt_core.hh"
#include "noc/ideal_network.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{

/** Which interconnect the chip instantiates. */
enum class NetKind
{
    MESH,       ///< single physical mesh
    DOUBLE,     ///< channel-sliced dedicated double network (Sec. IV-C)
    PERFECT,    ///< zero latency, infinite bandwidth (Sec. III-B)
    BW_LIMITED  ///< zero latency, aggregate BW cap (Sec. III-A)
};

/** Full chip configuration. */
struct ChipParams
{
    double coreClockMhz = 1296.0; ///< Table II
    double icntClockMhz = 602.0;
    double memClockMhz = 1107.0;

    SimtCoreParams core;
    McNodeParams mc;

    NetKind netKind = NetKind::MESH;
    MeshNetworkParams mesh;
    /** BW_LIMITED: aggregate accepted flits per interconnect cycle. */
    double idealFlitsPerCycle = 0.0;

    Cycle maxIcntCycles = 4'000'000;
    std::uint64_t seed = 1;
};

/** Named configurations used by the paper's experiments. */
enum class ConfigId
{
    BASELINE_TB_DOR,     ///< Sec. II/III baseline: TB placement, DOR,
                         ///< 16 B channels, 2 VCs, 4-stage routers
    TB_DOR_2X,           ///< 32 B channels ("2x BW")
    TB_DOR_1CYC,         ///< 1-cycle aggressive routers (Sec. III-C)
    PERFECT,             ///< perfect NoC
    CP_DOR_2VC,          ///< checkerboard placement, DOR, 2 VCs
    CP_DOR_4VC,          ///< CP, DOR, 4 VCs (Fig. 17)
    CP_CR_4VC,           ///< CP, checkerboard routing, 4 VCs (Fig. 17)
    CP_CR_SINGLE_16B_4VC,///< Fig. 18 single-network baseline
    CP_CR_DOUBLE,        ///< channel-sliced double network (Fig. 18)
    CP_CR_DOUBLE_2INJ,   ///< + 2 injection ports at MCs (Fig. 19)
    CP_CR_DOUBLE_2EJ,    ///< + 2 ejection ports at MCs (Fig. 19)
    CP_CR_DOUBLE_2INJ2EJ,///< + both (Fig. 19)
    THROUGHPUT_EFFECTIVE,///< final design (Fig. 20): CP+CR+double+2P
    /** CP + CR + 2 injection ports on a single 16B network (no
     *  channel slicing).  In our flit-accurate model this variant is
     *  the throughput-effective sweet spot; reported alongside the
     *  paper's exact final design (see EXPERIMENTS.md). */
    CP_CR_2INJ_SINGLE
};

/** @return human-readable configuration name. */
const char *configName(ConfigId id);

/** Builds the ChipParams for a named configuration. */
ChipParams makeConfig(ConfigId id, std::uint64_t seed = 1);

/** Builds the BW-limited ideal config for Fig. 6 (x = fraction of
 *  off-chip DRAM bandwidth). */
ChipParams makeBwLimitedConfig(double dram_bw_fraction,
                               std::uint64_t seed = 1);

/** Area-model spec of the mesh `p` builds (Table VI rows). */
MeshAreaSpec areaSpecOf(const ChipParams &p);

/** Aggregate flits/icnt-cycle equal to the full DRAM bandwidth. */
double dramBandwidthFlitsPerIcntCycle(const ChipParams &p);

/**
 * Builds ChipParams from a dotted-key Config, starting from a named
 * base configuration.  Recognized keys (all optional):
 *
 *   base            = name of a base config (default "baseline"):
 *                     baseline | 2x | 1cyc | perfect | cp |
 *                     cp-dor-4vc | cp-cr | double | thr-eff | cp-cr-2p
 *   noc.sliced      = bool (the channel-sliced double network)
 *   the mesh keys meshParamsFromConfig reads (MESH_CONFIG_KEYS):
 *     noc.rows, noc.cols, noc.mcs
 *     noc.placement   = top-bottom | checkerboard
 *     noc.halfRouters = bool (half-routers route CR, full routers XY)
 *     noc.flitBytes, noc.vcsPerClass, noc.vcDepth, noc.pipelineDepth,
 *     noc.halfPipelineDepth, noc.mcInjPorts, noc.mcEjPorts
 *     noc.validate, noc.validateInterval, noc.watchdogWindow,
 *     noc.maxPacketAge, noc.watchdogSnapshotPath
 *   clk.coreMhz, clk.icntMhz, clk.memMhz
 *   mc.inputQueueCap, mc.l2HitLatency
 *   dram.queueCapacity, dram.banks, dram.rowBytes
 *   sim.seed, sim.maxIcntCycles
 *
 * Unknown keys are fatal (catching typos in experiment scripts), and
 * so is any mesh meshParamsError refuses: a degenerate or oversized
 * mesh, no MCs, a router past the model's limits (64 input VCs, that
 * is (4 + noc.mcInjPorts) inputs x protocol x routing classes x
 * noc.vcsPerClass, and 64 outputs, 4 + noc.mcEjPorts), and so on.
 * A perfect or BW-limited chip is checked for its topology only.
 */
ChipParams chipParamsFromConfig(const Config &cfg);

/** Parses a base-config name ("thr-eff", "baseline", ...). */
ConfigId configIdFromName(const std::string &name);

} // namespace tenoc

#endif // TENOC_ACCEL_CHIP_CONFIG_HH
