/**
 * @file
 * Golden reference models for differential testing of the mesh NoC.
 *
 * The optimized simulator (4-stage pipelines, credit flow control,
 * idle-skip scheduling, pooled packets) is checked against two
 * deliberately simple references that share none of its machinery:
 *
 *  - GoldenModel: a global-knowledge route/timing oracle.  Given a
 *    packet whose header state was fixed at injection (mode,
 *    intermediate), it independently reconstructs the full hop
 *    sequence, judges its legality (adjacency, half-router turn
 *    restrictions) and minimality, and computes the exact zero-load
 *    latency the pipelined network must achieve on an idle mesh.
 *
 *  - GoldenShadow: a conservation bookkeeper that mirrors every
 *    injection and delivery into its own counters and replays the
 *    latency accumulation, then demands the network's NetStats agree
 *    exactly.  Any dropped, duplicated, or misrouted packet — or any
 *    delivery faster than physically possible — surfaces as a
 *    violation string.
 *
 * Neither model allocates per packet in steady state beyond a hash-map
 * entry, and neither reads any simulator internals: they observe only
 * the public inject/deliver boundary, which is what makes their
 * agreement meaningful.
 */

#ifndef TENOC_NOC_GOLDEN_GOLDEN_HH
#define TENOC_NOC_GOLDEN_GOLDEN_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "noc/mesh_network.hh"

namespace tenoc
{

/** Global-knowledge route and zero-load timing oracle. */
class GoldenModel
{
  public:
    /**
     * @param topo the mesh topology (must outlive the model)
     * @param params the network configuration under test
     */
    GoldenModel(const Topology &topo, const MeshNetworkParams &params);

    /**
     * Independently rebuilds the node sequence (src .. dst inclusive)
     * a packet must traverse, from its post-initPacket header state
     * alone.  Two-phase legs follow the algorithm's documented
     * orientation: checkerboard routing runs YX to the waypoint then
     * XY; ROMM/Valiant run XY on both legs.
     */
    void reconstructRoute(const Packet &pkt,
                          std::vector<NodeId> &out) const;

    /**
     * Exact latency of `route` on an otherwise idle network:
     * the sum of per-hop router pipeline depths (half-routers use the
     * shorter pipeline) plus per-hop channel latency plus tail
     * serialization, measured NI-enqueue to tail-ejection.
     *
     * Exact only while the whole packet fits in one VC buffer
     * (vcDepth >= sizeFlits); shallower buffers stall the tail on the
     * credit round trip, making this a strict lower bound instead.
     */
    Cycle zeroLoadLatency(const std::vector<NodeId> &route,
                          unsigned size_flits) const;

    /**
     * Appends one violation string per defect found in `route` for
     * `pkt`: non-adjacent hops, wrong endpoints, a direction change at
     * a half-router, or a non-minimal leg (every algorithm here is
     * minimal per leg; Valiant is only non-minimal end to end).
     */
    void checkRoute(const Packet &pkt,
                    const std::vector<NodeId> &route,
                    std::vector<std::string> &violations) const;

    const MeshNetworkParams &params() const { return params_; }

  private:
    /** Appends the DOR walk from `from` to `to` (excluding `from`). */
    void appendDorLeg(NodeId from, NodeId to, bool x_first,
                      std::vector<NodeId> &out) const;

    const Topology &topo_;
    MeshNetworkParams params_;
};

/**
 * Conservation and latency shadow.  Call onInject() immediately after
 * Network::inject() (header routing state is set by then), onDeliver()
 * from every sink, and finalCheck() once the run ends.  Violations
 * accumulate in violations().
 */
class GoldenShadow
{
  public:
    GoldenShadow(const GoldenModel &model, const Topology &topo);

    /**
     * When set, deliveries must meet the zero-load latency *exactly*
     * instead of treating it as a lower bound.  Only valid for runs
     * with at most one packet in flight at a time.
     */
    void setExpectZeroLoad(bool on) { expect_zero_load_ = on; }

    void onInject(const Packet &pkt, Cycle now);
    void onDeliver(const Packet &pkt, NodeId at, Cycle now);

    /**
     * Cross-checks the network's aggregate statistics against the
     * shadow's own bookkeeping.  Exact equality everywhere: latency
     * samples are integer-valued doubles far below 2^53, so even the
     * running sums must match bit for bit.
     * @param drained pass Network::drained(); when true every injected
     *        packet must have been delivered.
     */
    void finalCheck(const NetStats &stats, bool drained);

    std::size_t inFlight() const { return inflight_.size(); }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

  private:
    struct Expected
    {
        NodeId dst;
        unsigned sizeFlits;
        unsigned sizeBytes;
        Cycle created;
        Cycle zeroLoad;
    };

    void check(bool ok, std::string what);

    const GoldenModel &model_;
    const Topology &topo_;
    bool expect_zero_load_ = false;

    std::unordered_map<std::uint64_t, Expected> inflight_;
    std::vector<NodeId> route_scratch_;
    std::vector<std::string> violations_;

    // Shadow aggregates mirroring NetStats.
    std::uint64_t packets_in_ = 0, packets_out_ = 0;
    std::uint64_t flits_in_ = 0, flits_out_ = 0;
    std::vector<std::uint64_t> node_in_flits_, node_out_flits_;
    std::vector<std::uint64_t> node_in_bytes_, node_out_bytes_;
    std::uint64_t lat_count_ = 0;
    double lat_sum_ = 0.0, lat_min_ = 0.0, lat_max_ = 0.0;
};

} // namespace tenoc

#endif // TENOC_NOC_GOLDEN_GOLDEN_HH
