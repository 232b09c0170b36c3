/**
 * @file
 * Closed-loop manycore-accelerator chip simulator.
 *
 * Assembles 28 SIMT cores, the NoC (mesh / double mesh / ideal), and
 * 8 MC nodes (L2 bank + FR-FCFS GDDR3) across three clock domains
 * (Table II: core 1296 MHz, interconnect + L2 602 MHz, DRAM 1107 MHz)
 * and runs a kernel profile to completion, reporting application-level
 * throughput (scalar IPC) and the network/memory statistics used by
 * the paper's figures.
 */

#ifndef TENOC_ACCEL_CHIP_HH
#define TENOC_ACCEL_CHIP_HH

#include <memory>
#include <vector>

#include "accel/chip_config.hh"
#include "accel/mc_node.hh"
#include "common/clock.hh"
#include "gpu/simt_core.hh"
#include "noc/ideal_network.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{

/** Results of one closed-loop run. */
struct ChipResult
{
    double ipc = 0.0;              ///< scalar instructions / core cycle
    std::uint64_t scalarInsts = 0;
    Cycle coreCycles = 0;
    Cycle icntCycles = 0;
    Cycle memCycles = 0;
    bool timedOut = false;

    double mcStallFractionMean = 0.0; ///< Fig. 11
    double mcStallFractionMax = 0.0;
    double mcInjectionRate = 0.0;     ///< flits/cycle/MC node (Fig. 8)
    double avgNetLatency = 0.0;       ///< Fig. 10
    double avgTotalLatency = 0.0;
    double acceptedBytesPerNode = 0.0;///< classification (Sec. III-B)
    /** Ratio of per-MC to per-core injected bytes/cycle (the paper
     *  reports 6.9x on average, Sec. III-D). */
    double mcToCoreInjectionRatio = 0.0;
    double dramEfficiency = 0.0;      ///< Fig. 19 discussion
    double dramRowHitRate = 0.0;
    std::uint64_t packetsEjected = 0;
};

class Chip
{
  public:
    /**
     * @param params chip configuration
     * @param profile kernel to execute
     */
    Chip(const ChipParams &params, const KernelProfile &profile);
    ~Chip();

    /** Runs the kernel's launches to completion (or the cycle cap). */
    ChipResult run();

    Network &network() { return *net_; }
    const Topology &topology() const { return net_->topology(); }

    /**
     * Attaches a telemetry hub before run(): registers interval-
     * sampler probes (per-core instructions, DRAM row hits, MC stalls,
     * network flit flow), wires flit tracers into the network, and
     * ticks the sampler from the interconnect clock.
     */
    void attachTelemetry(telemetry::TelemetryHub &hub);

    /** Full chip statistics hierarchy (root group "chip"). */
    const StatGroup &statGroup() const { return stats_root_; }

  private:
    class CorePort;
    class CoreSink;

    void buildNetwork();
    void buildStatModel();
    void icntTick();
    void coreTick();
    void memTick();
    bool allCoresDone() const;
    ChipResult collect(bool timed_out) const;

    ChipParams params_;
    KernelProfile profile_;

    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<SimtCore>> cores_;
    std::vector<std::unique_ptr<CorePort>> ports_;
    std::vector<std::unique_ptr<CoreSink>> sinks_;
    std::vector<std::unique_ptr<McNode>> mcs_;
    std::vector<NodeId> core_nodes_;

    ClockDomainSet clocks_;
    ClockDomainSet::DomainId core_dom_ = 0;
    ClockDomainSet::DomainId icnt_dom_ = 0;
    ClockDomainSet::DomainId mem_dom_ = 0;

    Cycle icnt_now_ = 0;
    Cycle core_now_ = 0;
    Cycle mem_now_ = 0;

    // Statistics hierarchy (groups are registries of pointers into the
    // components above, so they must outlive nothing).
    StatGroup stats_root_{"chip"};
    StatGroup net_group_{"net"};
    std::vector<std::unique_ptr<StatGroup>> core_groups_;
    std::vector<std::unique_ptr<StatGroup>> mc_groups_;
    std::vector<std::unique_ptr<StatGroup>> dram_groups_;

    telemetry::TelemetryHub *hub_ = nullptr;
};

} // namespace tenoc

#endif // TENOC_ACCEL_CHIP_HH
