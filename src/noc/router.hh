/**
 * @file
 * Virtual-channel wormhole router.
 *
 * Canonical input-queued VC router with credit-based flow control and
 * separable (iSLIP-style) allocation, per Table III of the paper:
 *
 *   - per-packet route computation (RC) at the head flit,
 *   - VC allocation (VA): output-side round-robin among waiting heads,
 *   - switch allocation (SA): input-first round-robin, then
 *     output-side round-robin,
 *   - switch traversal (ST): one flit per input and per output per
 *     cycle, credits decremented on departure and returned upstream
 *     when flits leave this router's input buffers.
 *
 * Pipeline depth is modeled as a minimum residency: a flit arriving at
 * cycle t departs no earlier than t + depth, so arrival-to-arrival hop
 * latency is depth + channelLatency (5 cycles for the baseline).  The
 * baseline full router uses depth 4, half-routers depth 3 (Sec. V-A),
 * the aggressive router of Sec. III-C depth 1.
 *
 * Half-routers (Fig. 13) restrict connectivity: through traffic may
 * only continue straight (E<->W, N<->S), while injection reaches all
 * outputs and all inputs reach ejection.
 *
 * Multi-port MC routers (Sec. IV-D, Fig. 15(b)) add extra injection
 * and/or ejection ports that raise terminal bandwidth without touching
 * link bandwidth.  Ejection-port choice is round-robin at RC time.
 *
 * Storage layout: all per-VC state (input state machines, flit rings,
 * output VC ownership/credits) lives in a VcSlabs arena.  A router
 * built by MeshNetwork views contiguous index ranges of the network's
 * shared arena (see slab.hh); a standalone router owns a private one.
 * The pipeline stages (routeCompute/vcAllocate/switchAllocate) are
 * public so the network can batch one stage across all active routers
 * — each stage early-outs in O(vcs) contiguous loads when it has no
 * eligible VC, which is exactly the case where running it would have
 * been a no-op.
 */

#ifndef TENOC_NOC_ROUTER_HH
#define TENOC_NOC_ROUTER_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "noc/activity.hh"
#include "noc/arbiter.hh"
#include "noc/buffer.hh"
#include "noc/channel.hh"
#include "noc/routing.hh"
#include "noc/slab.hh"
#include "noc/topology.hh"
#include "noc/vc_map.hh"

namespace tenoc
{

namespace telemetry
{
class TraceSink;
} // namespace telemetry

/** Destination of ejected flits (implemented by NetworkInterface). */
class EjectionSink
{
  public:
    virtual ~EjectionSink() = default;
    /** @return true if one more flit fits in ejection buffer `port`. */
    virtual bool ejectReady(unsigned ej_port) const = 0;
    /** Delivers a flit to ejection buffer `port`. */
    virtual void ejectFlit(unsigned ej_port, Flit &&flit, Cycle now) = 0;
};

/** One mesh router. */
class Router
{
  public:
    struct Params
    {
        VcMap vcMap;
        unsigned vcDepth = 8;          ///< flit slots per VC (Table III)
        unsigned pipelineDepth = 4;    ///< min cycles of residency
        bool half = false;             ///< half-router connectivity
        unsigned numInjPorts = 1;
        unsigned numEjPorts = 1;
        /**
         * Age-based switch allocation: grant the contender whose
         * packet entered the network earliest instead of round-robin.
         * A global-fairness mechanism in the spirit of the work the
         * paper cites for WP's slowdown (Sec. V-B / [29]); off by
         * default (Table III uses iSLIP).
         */
        bool agePriority = false;
    };

    /** Standalone router owning its own slab storage (unit tests). */
    Router(NodeId id, const Topology &topo, RoutingAlgorithm &routing,
           const Params &params);

    /**
     * Router viewing a network-owned arena: input VCs
     * [in_vc_base, in_vc_base + numInputs*vcs) and output VCs
     * [out_vc_base, out_vc_base + numOutputs*vcs) of `slab`.
     */
    Router(NodeId id, const Topology &topo, RoutingAlgorithm &routing,
           const Params &params, VcSlabs &slab, std::size_t in_vc_base,
           std::size_t out_vc_base);

    NodeId id() const { return id_; }
    const Params &params() const { return params_; }
    unsigned numVcs() const { return nvcs_; }
    unsigned numInputs() const { return NUM_DIRS + params_.numInjPorts; }
    unsigned numOutputs() const { return NUM_DIRS + params_.numEjPorts; }

    /** Wires the output in direction `d` and its returning credits. */
    void connectOutput(Direction d, Channel<Flit> *flit_out,
                       Channel<Credit> *credit_in);
    /** Wires the input in direction `d` and its outgoing credits. */
    void connectInput(Direction d, Channel<Flit> *flit_in,
                      Channel<Credit> *credit_out);
    /** Attaches the local NI as the ejection sink. */
    void setEjectionSink(EjectionSink *sink) { sink_ = sink; }

    /**
     * Registers this router in its network's active set (idle-skip
     * scheduling).  The router marks itself whenever an NI injects a
     * flit; its channels mark it on every send (see
     * Channel::setWakeTarget).
     */
    void
    setActivity(ActiveSet *set, unsigned idx)
    {
        active_set_ = set;
        active_idx_ = idx;
    }

    /**
     * Registers this router with its network's arrival scheduler under
     * receiver index `idx` and points every attached channel at it
     * (channels attached later are pointed on connect).  readInputs
     * then drains only ports whose pending bit is set — bit d for the
     * flit link in direction d, bit NUM_DIRS+d for the returning
     * credit link of output d — and couldWork becomes O(1).
     */
    void setArrival(ArrivalScheduler *sched, unsigned idx);

    /** Pending-bit of the flit link arriving from direction `d`. */
    static constexpr std::uint32_t
    arrivalFlitBit(unsigned d)
    {
        return std::uint32_t{1} << d;
    }

    /** Pending-bit of the credit link returning on output `d`. */
    static constexpr std::uint32_t
    arrivalCreditBit(unsigned d)
    {
        return std::uint32_t{1} << (NUM_DIRS + d);
    }

    /** Points router traversals at a network-level running counter so
     *  telemetry can sample total flit hops without re-summing. */
    void setTraversalCounter(std::uint64_t *c) { net_traversed_ = c; }

    /**
     * @return true while this router may still have work: flits
     * buffered, or items (flits or returning credits) in flight on its
     * attached channels.  Used to retire routers from the active set;
     * a router for which this is false performs no state change when
     * ticked, so skipping it is bit-exact.
     */
    bool couldWork() const;

    /**
     * @return true if any attached channel holds an item that has
     * matured (arrival <= now) but has not been drained.  Used by the
     * invariant checker's activity audit: an unmarked router may have
     * items in flight (the arrival scheduler wakes it on the arrival
     * cycle), but never a matured, undrained one.
     */
    bool hasMaturedArrival(Cycle now) const;

    // --- NI injection access (same node, zero-latency handshake) ---
    /** Free slots in injection-port buffer `inj` (0-based), VC `vc`. */
    unsigned injFreeSlots(unsigned inj, unsigned vc) const;
    /** Pushes a flit into injection-port buffer `inj`. */
    void injectFlit(unsigned inj, Flit &&flit, Cycle now);

    // --- simulation phases (network drives these each icnt cycle) ---
    /** Phase 1: drain arriving flits and credits from channels. */
    void readInputs(Cycle now);

    // Phase 2, one pipeline stage per call, so MeshNetwork can batch
    // each stage across all active routers (better locality than
    // ticking a whole router at a time).  Each early-outs when no VC is
    // eligible — a case in which running it would not change any state,
    // return any grant, or emit any trace event, so skipping is
    // bit-exact.
    /** RC: assign output ports to idle VCs with buffered heads. */
    void routeCompute(Cycle now);
    /** VA: round-robin output-VC grants to routed head flits. */
    void vcAllocate(Cycle now);
    /** SA + ST: separable switch allocation, then traversal. */
    void switchAllocate(Cycle now);

    /** @return true if no flits are buffered here (O(inputs)). */
    bool empty() const;

    /** @return true if input `in` may be switched to output `out`. */
    bool connectivityAllows(unsigned in, unsigned out) const;

    // --- stats ---
    std::uint64_t flitsTraversed() const { return flits_traversed_; }
    std::uint64_t bufferedFlits() const;

    /** Flits sent on the outgoing link in direction `d` (per-link
     *  utilization; ejection traffic is not counted here). */
    std::uint64_t linkFlits(unsigned d) const { return link_flits_[d]; }

    /** Attaches (or detaches, with nullptr) a flit-event tracer. */
    void setTracer(telemetry::TraceSink *tracer) { tracer_ = tracer; }

    // --- introspection (invariant checker / watchdog / tests) ---
    /** Pipeline state of input VC (`in`, `vc`). */
    VcState vcState(unsigned in, unsigned vc) const
    {
        return inputs_[in].state(vc);
    }
    /** Output port assigned to input VC (`in`, `vc`) by RC. */
    unsigned vcOutPort(unsigned in, unsigned vc) const
    {
        return inputs_[in].outPort(vc);
    }
    /** Output VC granted to input VC (`in`, `vc`) by VA. */
    unsigned vcOutVc(unsigned in, unsigned vc) const
    {
        return inputs_[in].outVc(vc);
    }
    /** Flits buffered on input VC (`in`, `vc`). */
    std::size_t vcOccupancy(unsigned in, unsigned vc) const
    {
        return inputs_[in].occupancy(vc);
    }
    /** Head flit of input VC (`in`, `vc`), or nullptr when empty. */
    const Flit *
    vcFront(unsigned in, unsigned vc) const
    {
        return inputs_[in].empty(vc) ? nullptr : &inputs_[in].front(vc);
    }
    /** Credits held for downstream VC (`out`, `vc`). */
    unsigned outputCredits(unsigned out, unsigned vc) const
    {
        return slab_->outCredits[ov(out, vc)];
    }
    /** @return true if output VC (`out`, `vc`) is owned by a packet. */
    bool outputVcOwned(unsigned out, unsigned vc) const
    {
        return slab_->outOwned[ov(out, vc)] != 0;
    }
    /** Owning input port of output VC (`out`, `vc`) (owned only). */
    unsigned outputVcOwnerIn(unsigned out, unsigned vc) const
    {
        return slab_->outOwnerIn[ov(out, vc)];
    }
    /** Owning input VC of output VC (`out`, `vc`) (owned only). */
    unsigned outputVcOwnerVc(unsigned out, unsigned vc) const
    {
        return slab_->outOwnerVc[ov(out, vc)];
    }
    /** @return true if direction output `d` is wired to a channel. */
    bool
    outputConnected(unsigned d) const
    {
        return d < NUM_DIRS && outputs_[d].flitOut != nullptr;
    }
    /** Calls f(in, vc, flit) for every buffered flit. */
    template <typename F>
    void
    forEachBufferedFlit(F &&f) const
    {
        for (unsigned in = 0; in < numInputs(); ++in) {
            inputs_[in].forEachFlit(
                [&](unsigned vc, const Flit &flit) { f(in, vc, flit); });
        }
    }

    // --- checkpoint/restore ---
    /** Serializes all dynamic router state (buffers, VC ownership,
     *  credits, arbiter pointers, counters). */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(); structural parameters must
     *  match the saving router. */
    void restore(SnapshotReader &r);

    // --- fault hooks (FaultEngine / mutation tests) ---
    /**
     * Deliberately leaks one downstream credit on output VC
     * (`out`, `vc`): the buffer slot it represents is never usable
     * again.  No-op at zero credits.  @return true if a credit was
     * dropped.
     */
    bool
    dropCredit(unsigned out, unsigned vc)
    {
        auto &credits = slab_->outCredits[ov(out, vc)];
        if (credits == 0)
            return false;
        --credits;
        return true;
    }

  private:
    void initPorts();

    // The allocators over word-array request sets, W words per set
    // (W = 1: every router with at most 64 input VCs, single-mask code
    // with O(1) RoundRobinArbiter::grantMask grants; W = 0: the runtime
    // word counts below, O(words) grantWords grants).
    template <unsigned W>
    void vcAllocateWords(Cycle now);
    template <unsigned W>
    void switchAllocateWords(Cycle now);

    bool isInjection(unsigned in) const { return in >= NUM_DIRS; }
    bool isEjection(unsigned out) const { return out >= NUM_DIRS; }

    /** Global slab index of output VC (`out`, `vc`). */
    std::size_t ov(unsigned out, unsigned vc) const
    {
        return out_base_ + out * nvcs_ + vc;
    }

    /** Chooses an ejection output port round-robin. */
    unsigned nextEjectionPort();

    /** Network entry time of a flit's packet (for age priority). */
    static Cycle packetAge(const Flit &f);

    NodeId id_;
    const Topology &topo_;
    RoutingAlgorithm &routing_;
    Params params_;
    unsigned nvcs_;
    EjectionSink *sink_ = nullptr;

    // Private arena for standalone routers; null when viewing the
    // network's shared slab.  Declared before the views into it.
    std::unique_ptr<VcSlabs> owned_slab_;
    VcSlabs *slab_;
    std::size_t in_base_;  ///< first global input-VC index
    std::size_t out_base_; ///< first global output-VC index

    std::vector<InputPort> inputs_;

    struct OutputPort
    {
        Channel<Flit> *flitOut = nullptr;   ///< null for ejection ports
        Channel<Credit> *creditIn = nullptr;
        RoundRobinArbiter vaArb;  ///< VC-allocation arbiter
        RoundRobinArbiter saArb;  ///< switch output arbiter
    };
    std::vector<OutputPort> outputs_;

    struct InputLink
    {
        Channel<Flit> *flitIn = nullptr;
        Channel<Credit> *creditOut = nullptr;
    };
    std::vector<InputLink> in_links_;

    std::vector<RoundRobinArbiter> sa_input_arb_; ///< per input port
    unsigned ej_rr_ = 0;

    std::uint64_t flits_traversed_ = 0;
    std::uint64_t *net_traversed_ = nullptr;
    std::array<std::uint64_t, NUM_DIRS> link_flits_{};
    telemetry::TraceSink *tracer_ = nullptr;

    ActiveSet *active_set_ = nullptr;
    unsigned active_idx_ = 0;
    ArrivalScheduler *arrival_sched_ = nullptr;
    unsigned arrival_idx_ = 0;

    // Allocation scratch, hoisted out of the per-cycle loops so the
    // hot path performs no heap allocation.
    unsigned va_words_ = 1; ///< words per input-VC set (inputs * vcs)
    unsigned vc_words_ = 1; ///< words per one input's VC set
    unsigned in_words_ = 1; ///< words per input-port set
    /** Per-output VA requestor sets: numOutputs * va_words_. */
    std::vector<std::uint64_t> va_reqs_;
    /** Per-output SA requestor sets: numOutputs * in_words_. */
    std::vector<std::uint64_t> sa_out_reqs_;
    /** Multi-word SA input-stage sets (W = 1 keeps them in registers):
     *  candidate VCs (va_words_), one input's requests and eligible
     *  VCs (vc_words_ each). */
    std::vector<std::uint64_t> sa_cand_, sa_req_, sa_elig_;
    std::vector<unsigned> sa_nominee_; ///< per input port
};

} // namespace tenoc

#endif // TENOC_NOC_ROUTER_HH
