/**
 * @file
 * Flit-level 2D mesh network, plus the channel-sliced "double network"
 * (Sec. IV-C) that runs requests and replies on two parallel
 * half-width physical networks.
 */

#ifndef TENOC_NOC_MESH_NETWORK_HH
#define TENOC_NOC_MESH_NETWORK_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "noc/faults.hh"
#include "noc/invariants.hh"
#include "noc/network.hh"
#include "noc/network_interface.hh"
#include "noc/router.hh"
#include "noc/slab.hh"
#include "telemetry/json.hh"

namespace tenoc
{

/** Mesh network configuration (defaults follow Table III). */
struct MeshNetworkParams
{
    TopologyParams topo;
    std::string routing = "xy";     ///< "xy", "yx", or "cr"
    unsigned flitBytes = 16;        ///< channel width
    unsigned protoClasses = 2;      ///< VC protocol classes
    unsigned vcsPerClass = 1;       ///< lanes per (proto, route) class
    unsigned vcDepth = 8;           ///< buffers per VC
    unsigned pipelineDepth = 4;     ///< full-router pipeline stages
    unsigned halfPipelineDepth = 3; ///< half-router pipeline stages
    Cycle channelLatency = 1;
    unsigned mcInjPorts = 1;        ///< injection ports at MC routers
    unsigned mcEjPorts = 1;         ///< ejection ports at MC routers
    /** Oldest-first switch allocation (global fairness; see
     *  Router::Params::agePriority). */
    bool agePriority = false;
    /**
     * Idle-skip scheduling: tick only routers/NIs that can make
     * progress this cycle (tracked by ActiveSet) instead of sweeping
     * every component.  Bit-exact with the full sweep — an idle router
     * performs no state change when ticked — so this is on by default;
     * turn off to get the reference full-tick scheduler (used by the
     * equivalence regression and the noc_speed benchmark).
     */
    bool idleSkip = true;
    /**
     * Arrival-scheduled channel delivery: every Channel::send posts a
     * wake at its exact delivery cycle into a per-network timing wheel
     * (noc/arrival.hh) instead of marking the receiver immediately, so
     * readInputs drains only ports with a matured front entry and a
     * retired router sleeps until its earliest in-flight arrival.
     * Bit-exact with mark-on-send — every tick it skips is a no-op
     * (see docs/performance.md, "Sleep-until-arrival") — so this is on
     * by default; TENOC_ARRIVAL_SLEEP=0/1 in the environment overrides
     * it everywhere (equivalence tests cross both settings).
     */
    bool arrivalSleep = true;
    NiParams ni;
    std::uint64_t seed = 1;
    /**
     * Runtime invariant checking (see noc/invariants.hh): audits
     * credit/flit/packet conservation, VC state legality, occupancy
     * bounds and idle-skip activity every `validateInterval` cycles
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
    /** Seeded fault injection (see noc/faults.hh); inert when empty. */
    FaultConfig faults;
    /**
     * Intra-cycle parallelism: number of worker threads ticking this
     * network's phases (and, through Chip, its SIMT cores).  0 means
     * "use the TENOC_CYCLE_THREADS environment variable" (default 1 =
     * one shard, run inline).  Any value >1 runs each phase
     * data-parallel over that many static ascending-index shards with
     * barriers between phases; results are bit-identical for every
     * thread count (see docs/performance.md).  Resolved once at
     * construction (common/parallel.hh:resolveCycleThreads).
     */
    unsigned cycleThreads = 0;
};

/**
 * Fatal-checks a MeshNetworkParams for configurations that cannot
 * simulate (0 VCs, 0-depth buffers, ...) with actionable messages.
 * Called by the MeshNetwork constructor; exposed for config frontends
 * that want to fail before constructing anything.
 */
void validateMeshNetworkParams(const MeshNetworkParams &params);

/**
 * Per-phase wall-time breakdown of MeshNetwork::cycle, accumulated
 * while a profile is attached (noc_speed --profile).  "Bookkeeping"
 * covers everything outside the four component phases: arrival-wheel
 * firing, fault ticks, deferred-mark merges, retirement and postCycle.
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
    const RoutingAlgorithm &routing() const { return *routing_; }
    Router &router(NodeId n) { return *routers_[n]; }
    const MeshNetworkParams &params() const { return params_; }

    // --- hardening layer ---
    /** The network's invariant auditor (always wired; only *runs*
     *  periodically when params().validate is set). */
    const InvariantChecker &checker() const { return *checker_; }
    /** Fault stats when fault injection is configured, else nullptr. */
    const FaultStats *faultStats() const
    {
        return faults_ ? &faults_->stats() : nullptr;
    }
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
     *  ages, live invariant audit, fault summary. */
    telemetry::JsonValue diagnosticSnapshot(Cycle now) const;

    /** Test hook: corrupts the O(1) in-flight packet counter by
     *  `delta` so mutation tests can prove the checker catches it. */
    void debugAdjustInflight(std::int64_t delta)
    {
        inflight_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(inflight_) + delta);
    }
    /** Test hook: retires router `n` from the active set as if it ran
     *  dry (an idle-skip scheduling bug the checker must detect). */
    void debugRetireRouter(NodeId n) { router_active_.clear(n); }

    /** Resolved intra-cycle thread (shard) count; 1 = one inline
     *  shard. */
    unsigned cycleThreads() const { return cycle_threads_; }

    /** Attaches (or detaches, with nullptr) a per-phase wall-time
     *  profile accumulated by every subsequent cycle() call. */
    void setPhaseProfile(PhaseProfile *profile) { profile_ = profile; }

    // --- checkpoint/restore ---
    /** Serializes all dynamic network state (routers, NIs, channels,
     *  activity masks, counters, RNG).  Must be called at a cycle
     *  boundary; fatals when fault injection is configured (the fault
     *  engine's schedule position is not serialized). */
    void save(SnapshotWriter &w) const override;

    /** Restores state written by save(); topology/VC structure must
     *  match the saving network. */
    void restore(SnapshotReader &r) override;

  private:
    friend class DoubleNetwork;

    void postCycle(Cycle now);
    void fireWatchdog(Cycle now, const char *reason);
    /** Applies the NIs' deferred stat deltas and replays deliveries in
     *  ascending NI order (the one-shard drain order). Caller thread;
     *  sharded networks only (cycle_threads_ > 1). */
    void flushDeferred();
    /** Sharded DoubleNetwork slice wiring: the parent flushes deferred
     *  state and runs postCycle itself, in request-then-reply order. */
    void
    setDeferToParent()
    {
        defer_to_parent_ = true;
        count_cycles_ = false;
    }

    MeshNetworkParams params_;
    Topology topo_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    VcMap vc_map_;
    Rng rng_;

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

    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
    /** Channels by value in wiring order (a deque constructs in place
     *  and never relocates, so wired pointers stay stable). */
    std::deque<Channel<Flit>> flit_channels_;
    std::deque<Channel<Credit>> credit_channels_;

    std::unique_ptr<NetStats> owned_stats_;
    NetStats *stats_;
    std::uint64_t own_pkt_ids_ = 1;
    /** Points at own_pkt_ids_, or at the DoubleNetwork's shared
     *  counter so both slices draw from one id space. */
    std::uint64_t *pkt_ids_ = &own_pkt_ids_;

    /** Routers that may have work this cycle (idle-skip). */
    ActiveSet router_active_;
    /** NIs with packets queued/in flight or ejection flits buffered. */
    ActiveSet ni_active_;
    /** Arrival-cycle wake scheduler for all channels (arrivalSleep);
     *  unconfigured when the feature is disabled. */
    ArrivalScheduler arrival_;
    /** Per-phase wall-time accumulator; null unless profiling. */
    PhaseProfile *profile_ = nullptr;
    /** Packets inside the network (enqueue .. tail ejection); makes
     *  drained() O(1). */
    std::uint64_t inflight_ = 0;
    /** Running sum of router switch traversals (telemetry). */
    std::uint64_t flits_traversed_total_ = 0;

    // --- intra-cycle parallelism (see docs/performance.md) ---
    /** Shard count, resolved at construction; 1 = one inline shard. */
    unsigned cycle_threads_ = 1;
    /** Sharded DoubleNetwork slice: skip flush/postCycle in cycle()
     *  (the parent runs them in request-then-reply order). */
    bool defer_to_parent_ = false;
    /** False for sharded DoubleNetwork slices (the parent counts wall
     *  cycles once). */
    bool count_cycles_ = true;
    /** A flit tracer is attached: run shards inline on the caller so
     *  trace callbacks stay single-threaded. */
    bool tracer_attached_ = false;
    /** Per-shard switch-traversal counts, folded into
     *  flits_traversed_total_ at the end-of-cycle barrier.  One cache
     *  line per shard: each worker increments its counter on every
     *  switch traversal, so adjacent bare words would false-share. */
    std::vector<parallel::PaddedU64> shard_traversed_;

    /** Monotone flit entry/exit counters for THIS network (NetStats
     *  totals are shared between double-network slices); their
     *  difference is the exact in-network flit population and their
     *  sum a progress signal for the watchdog. */
    std::uint64_t net_flits_in_ = 0;
    std::uint64_t net_flits_out_ = 0;

    std::unique_ptr<InvariantChecker> checker_;
    std::unique_ptr<FaultEngine> faults_;
    Cycle next_check_ = 0;

    WatchdogHandler wd_handler_;
    std::uint64_t wd_last_progress_ = 0;
    Cycle wd_last_change_ = 0;
};

/**
 * Dedicated double network (Sec. IV-C): one physical network carries
 * request packets, the other replies; each slice has half-width
 * channels and needs no protocol VCs.
 */
class DoubleNetwork : public Network
{
  public:
    /**
     * Builds two slices from `base`: channel width halved, protocol
     * classes dropped to 1 per slice.
     */
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

    /** Serializes shared state plus both slices (checkpoint). */
    void save(SnapshotWriter &w) const override;

    /** Restores state written by save(). */
    void restore(SnapshotReader &r) override;
    /** Installs `handler` on both slices. */
    void
    setWatchdogHandler(WatchdogHandler handler)
    {
        request_->setWatchdogHandler(handler);
        reply_->setWatchdogHandler(std::move(handler));
    }

  private:
    MeshNetwork &subnetFor(int proto_class) const;

    /** Run the two slices as pool tasks (cycleThreads > 1). */
    bool sharded_ = false;
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
