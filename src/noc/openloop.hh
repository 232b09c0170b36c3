/**
 * @file
 * Open-loop latency-vs-load harness (Fig. 21).
 */

#ifndef TENOC_NOC_OPENLOOP_HH
#define TENOC_NOC_OPENLOOP_HH

#include <vector>

#include "noc/mesh_network.hh"

namespace tenoc
{

/** One open-loop experiment. */
struct OpenLoopParams
{
    MeshNetworkParams net;
    /** Request packets per cycle per compute node (x axis). */
    double injectionRate = 0.02;
    /** Fraction of requests aimed at one MC (0 = uniform random). */
    double hotspotFraction = 0.0;
    unsigned requestFlits = 1; ///< compute nodes inject 1-flit packets
    unsigned replyFlits = 4;   ///< MCs inject 4-flit packets
    Cycle warmupCycles = 2000;
    Cycle measureCycles = 8000;
    Cycle drainCycles = 30000;
    /** Source queues beyond this depth flag saturation. */
    std::size_t saturationQueue = 400;
    /** Mean packet latency beyond this flags saturation (the reply
     *  backlog at MC echo sinks shows up as latency, not as source
     *  queueing). */
    double saturationLatency = 300.0;
    std::uint64_t seed = 12345;
};

/** Results of one open-loop run. */
struct OpenLoopResult
{
    double offeredLoad = 0.0;   ///< flits/cycle/compute node offered
    /** Measurement-tagged flits delivered per cycle per node (same
     *  packet population as the latency statistics). */
    double acceptedLoad = 0.0;
    double avgLatency = 0.0;    ///< mean packet latency (cycles)
    double avgRequestLatency = 0.0;
    double avgReplyLatency = 0.0;
    /** 95th-percentile packet latency over the whole run. */
    double p95Latency = 0.0;
    bool saturated = false;
};

/** Runs one open-loop point. */
OpenLoopResult runOpenLoop(const OpenLoopParams &params);

/**
 * Sweeps injection rate from `start` in steps of `step` until the
 * network saturates (or `max_rate`), returning one result per point.
 */
std::vector<OpenLoopResult> sweepOpenLoop(OpenLoopParams params,
                                          double start, double step,
                                          double max_rate);

} // namespace tenoc

#endif // TENOC_NOC_OPENLOOP_HH
