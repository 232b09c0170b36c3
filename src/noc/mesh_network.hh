/**
 * @file
 * Flit-level 2D mesh network, plus the channel-sliced "double network"
 * (Sec. IV-C) that runs requests and replies on two parallel
 * half-width physical networks.
 */

#ifndef TENOC_NOC_MESH_NETWORK_HH
#define TENOC_NOC_MESH_NETWORK_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "noc/invariants.hh"
#include "noc/link.hh"
#include "noc/network.hh"
#include "noc/network_interface.hh"
#include "noc/router.hh"
#include "noc/slab.hh"
#include "telemetry/json.hh"

namespace tenoc
{

/**
 * Mesh network configuration (defaults follow Table III).  The router
 * kind decides the routing (XY on full routers, CR on the half-router
 * checkerboard; see Routing), and every link takes one cycle.
 */
struct MeshNetworkParams
{
    TopologyParams topo;
    unsigned flitBytes = 16;        ///< channel width
    unsigned protoClasses = 2;      ///< VC protocol classes
    unsigned vcsPerClass = 1;       ///< lanes per (proto, route) class
    unsigned vcDepth = 8;           ///< buffers per VC
    unsigned pipelineDepth = 4;     ///< full-router pipeline stages
    unsigned halfPipelineDepth = 3; ///< half-router pipeline stages
    unsigned mcInjPorts = 1;        ///< injection ports at MC routers
    unsigned mcEjPorts = 1;         ///< ejection ports at MC routers
    NiParams ni;
    std::uint64_t seed = 1;
    /**
     * Runtime invariant checking (see noc/invariants.hh): audits
     * credit/flit/packet conservation, VC state legality, occupancy
     * bounds and active-set coverage every `validateInterval` cycles
     * and panics on the first inconsistency.  Pure observation — never
     * changes simulated behaviour.  Off by default for speed; the test
     * suite turns it on, and TENOC_VALIDATE=1 in the environment
     * forces it on everywhere.
     */
    bool validate = false;
    Cycle validateInterval = 64;
    /**
     * Deadlock/livelock watchdog: when packets are in flight but no
     * flit moves (no injection, traversal or ejection) for this many
     * consecutive cycles, the network emits a structured diagnostic
     * snapshot (written to `watchdogSnapshotPath`) and fails fast
     * instead of hanging.  0 disables.  Tests install a handler via
     * MeshNetwork::setWatchdogHandler to observe firings instead of
     * terminating.
     */
    Cycle watchdogWindow = 200000;
    /** Livelock bound: a packet older than this (cycles since NI
     *  enqueue) trips the watchdog.  0 disables the age scan. */
    Cycle maxPacketAge = 0;
    std::string watchdogSnapshotPath = "tenoc_watchdog_snapshot.json";
};

/**
 * Checks the routers `params` builds against the router model's
 * limits: at most Router::MAX_INPUT_VCS input VCs (inputs x VCs) and
 * Router::MAX_OUTPUTS outputs per router.  @return an empty string
 * if they fit, else why not.
 */
std::string routerGeometryError(const MeshNetworkParams &params);

/**
 * Fatal-checks a MeshNetworkParams for configurations that cannot
 * simulate (0 VCs, 0-depth buffers, routers past the 64-input-VC
 * limit, ...) with actionable messages.  Called by the MeshNetwork
 * constructor and by chipParamsFromConfig, so a config fails when it
 * is read rather than when the network is built.
 */
void validateMeshNetworkParams(const MeshNetworkParams &params);

/**
 * Per-phase wall-time breakdown of MeshNetwork::cycle, accumulated
 * while a profile is attached (noc_speed --profile).  `readInputsNs`
 * times LinkWheel::fire, which deposits the cycle's link arrivals;
 * "bookkeeping" covers retirement and postCycle.
 */
struct PhaseProfile
{
    std::uint64_t readInputsNs = 0;
    std::uint64_t injectNs = 0;
    std::uint64_t computeNs = 0;
    std::uint64_t drainNs = 0;
    std::uint64_t bookkeepingNs = 0;
    std::uint64_t cycles = 0;
};

/** Cycle-accurate mesh NoC. */
class MeshNetwork : public Network
{
  public:
    /**
     * @param params configuration
     * @param shared_stats optional external stats block (used by
     *        DoubleNetwork to aggregate both slices); when null the
     *        network owns its stats.
     * @param shared_ids optional external packet-id counter (used by
     *        DoubleNetwork so ids stay unique across both slices —
     *        telemetry traces and differential shadows key on them);
     *        when null the network numbers packets itself.
     */
    explicit MeshNetwork(const MeshNetworkParams &params,
                         NetStats *shared_stats = nullptr,
                         std::uint64_t *shared_ids = nullptr);
    const Topology &topology() const override { return topo_; }
    unsigned flitBytes() const override { return params_.flitBytes; }
    bool canInject(NodeId n, int proto_class) const override;
    unsigned injectSpace(NodeId n, int proto_class) const override;
    void inject(PacketPtr pkt, Cycle now) override;
    void setSink(NodeId n, PacketSink *sink) override;
    void cycle(Cycle now) override;
    bool drained() const override;
    void attachTelemetry(telemetry::TelemetryHub &hub) override;
    NetStats &stats() override { return *stats_; }

    /**
     * attachTelemetry with a column-name prefix; the double network
     * uses "req_" / "rep_" so both slices' probes coexist in one
     * interval CSV.
     */
    void attachTelemetryPrefixed(telemetry::TelemetryHub &hub,
                                 const std::string &prefix);

    const VcMap &vcMap() const { return vc_map_; }
    Router &router(NodeId n) { return *routers_[n]; }
    /** The network's links (tests corrupt it to probe the checker). */
    LinkWheel &links() { return links_; }
    /** The router and NI arenas (tests corrupt them likewise). */
    VcSlabs &vcSlabs() { return slabs_; }
    NiSlabs &niSlabs() { return ni_slabs_; }
    const MeshNetworkParams &params() const { return params_; }

    // --- hardening layer ---
    /** The network's invariant auditor (always wired; only *runs*
     *  periodically when params().validate is set). */
    const InvariantChecker &checker() const { return checker_; }
    /** Replaces the fail-fast watchdog action (snapshot file + exit)
     *  with `handler`; pass nullptr to restore the default. */
    void setWatchdogHandler(WatchdogHandler handler)
    {
        wd_handler_ = std::move(handler);
    }
    /** Structured deadlock-diagnosis snapshot (JSON). */
    std::string diagnosticReport(Cycle now) const override;
    /** Same snapshot as a JSON document (schema "tenoc-watchdog-v1"):
     *  per-router VC states and credits, wait-for edges, oldest packet
     *  ages, live invariant audit. */
    telemetry::JsonValue diagnosticSnapshot(Cycle now) const;

    /** Test hook: corrupts the O(1) in-flight packet counter by
     *  `delta` so mutation tests can prove the checker catches it. */
    void debugAdjustInflight(std::int64_t delta)
    {
        counters_.inflight = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(counters_.inflight) + delta);
    }
    /** Test hook: retires router `n` from the active set as if it ran
     *  dry (a scheduling bug the checker must detect). */
    void debugRetireRouter(NodeId n) { router_active_.clear(n); }

    /** Attaches (or detaches, with nullptr) a per-phase wall-time
     *  profile accumulated by every subsequent cycle() call. */
    void setPhaseProfile(PhaseProfile *profile) { profile_ = profile; }

  private:
    void postCycle(Cycle now);
    void fireWatchdog(Cycle now, const char *reason);

    MeshNetworkParams params_;
    Topology topo_;
    Routing routing_;
    VcMap vc_map_;
    Rng rng_;

    // The state every router and NI is given at construction, declared
    // before them so it outlives them.
    /** Routers with buffered flits. */
    ActiveSet router_active_;
    /** NIs with packets queued/in flight or ejection flits buffered. */
    ActiveSet ni_active_;
    /** In-flight packets, flit entry/exit and traversals, kept by the
     *  routers and NIs (see NetCounters). */
    NetCounters counters_;

    InvariantChecker checker_;

    /**
     * Structure-of-arrays arena holding every router's VC state
     * machines, flit rings and output-VC bookkeeping in node order
     * (see slab.hh).  Declared before the routers that view it so it
     * outlives them on destruction.
     */
    VcSlabs slabs_;
    /** SoA arena for the NIs' hot state (class queues, active packet
     *  slots, ejection rings); declared before the NIs that view it. */
    NiSlabs ni_slabs_;

    /** Every router-to-router link, with the flits and credits on
     *  them (noc/link.hh). */
    LinkWheel links_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;

    std::unique_ptr<NetStats> owned_stats_;
    NetStats *stats_;
    std::uint64_t own_pkt_ids_ = 1;
    /** Points at own_pkt_ids_, or at the DoubleNetwork's shared
     *  counter so both slices draw from one id space. */
    std::uint64_t *pkt_ids_ = &own_pkt_ids_;

    /** Per-phase wall-time accumulator; null unless profiling. */
    PhaseProfile *profile_ = nullptr;
    Cycle next_check_ = 0;

    WatchdogHandler wd_handler_;
    std::uint64_t wd_last_progress_ = 0;
    Cycle wd_last_change_ = 0;
};

/**
 * The parameters of each slice of a DoubleNetwork built from `base`:
 * half-width flits, one protocol class and twice the lanes per class,
 * so a slice keeps the unsliced network's buffer storage.  Fatal when
 * `base.flitBytes` cannot be halved.
 */
MeshNetworkParams slicedParams(const MeshNetworkParams &base);

/**
 * Dedicated double network (Sec. IV-C): one physical network carries
 * request packets, the other replies; each slice (slicedParams) has
 * half-width channels and needs no protocol VCs.
 */
class DoubleNetwork : public Network
{
  public:
    /** Builds two slices from `base` (see slicedParams). */
    explicit DoubleNetwork(const MeshNetworkParams &base);

    const Topology &topology() const override
    {
        return request_->topology();
    }
    unsigned flitBytes() const override;
    bool canInject(NodeId n, int proto_class) const override;
    unsigned injectSpace(NodeId n, int proto_class) const override;
    void inject(PacketPtr pkt, Cycle now) override;
    void setSink(NodeId n, PacketSink *sink) override;
    void cycle(Cycle now) override;
    bool drained() const override;
    void attachTelemetry(telemetry::TelemetryHub &hub) override;
    NetStats &stats() override { return *stats_; }

    MeshNetwork &requestNet() { return *request_; }
    MeshNetwork &replyNet() { return *reply_; }

    /** Combined snapshot of both slices. */
    std::string diagnosticReport(Cycle now) const override;

    /** Installs `handler` on both slices. */
    void
    setWatchdogHandler(WatchdogHandler handler)
    {
        request_->setWatchdogHandler(handler);
        reply_->setWatchdogHandler(std::move(handler));
    }

  private:
    MeshNetwork &subnetFor(int proto_class) const;

    std::unique_ptr<NetStats> stats_;
    /** Shared packet-id counter: ids must stay unique across slices. */
    std::uint64_t next_pkt_id_ = 1;
    std::unique_ptr<MeshNetwork> request_;
    std::unique_ptr<MeshNetwork> reply_;
};

/**
 * Builds either a single MeshNetwork or a DoubleNetwork depending on
 * `sliced`; when sliced, channel width is halved per slice so total
 * bisection bandwidth is unchanged (the paper's comparison).
 */
std::unique_ptr<Network> makeMeshNetwork(const MeshNetworkParams &params,
                                         bool sliced);

} // namespace tenoc

#endif // TENOC_NOC_MESH_NETWORK_HH
