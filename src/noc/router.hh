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
 * Links are entries on the network's LinkWheel (link.hh): ST posts
 * each departing flit, and each credit it returns, and the next
 * cycle's fire pushes the flit into the downstream router (or adds
 * the credit upstream).
 *
 * Pipeline depth is modeled as a minimum residency: a flit arriving at
 * cycle t departs no earlier than t + depth, so arrival-to-arrival hop
 * latency is depth + 1 for the one-cycle link (5 cycles for the
 * baseline).  The baseline full router uses depth 4, half-routers
 * depth 3 (Sec. V-A), the aggressive router of Sec. III-C depth 1.
 *
 * Half-routers (Fig. 13) restrict connectivity: through traffic may
 * only continue straight (E<->W, N<->S), while injection reaches all
 * outputs and all inputs reach ejection.
 *
 * Multi-port MC routers (Sec. IV-D, Fig. 15(b)) add extra injection
 * and/or ejection ports that raise terminal bandwidth without touching
 * link bandwidth.  Ejection-port choice is round-robin at RC time.
 *
 * Storage layout: all per-VC state (one InVc record per input VC, the
 * flit rings, one OutVc record per output VC) lives in a VcSlabs
 * arena that the network owns; each router views contiguous index
 * ranges of it (see slab.hh).
 * The pipeline stages (routeCompute/vcAllocate/switchAllocate) are
 * public so the network can run them in one pass over its active
 * routers.  Each stage walks its own work set, a 64-bit mask over the
 * router's input VCs kept up to date by the events that change VC
 * state or ring occupancy (see StageMasks), so a stage with no
 * eligible VC returns after one mask test — exactly the case where
 * running it would have been a no-op.  A router therefore takes at
 * most MAX_INPUT_VCS input VCs and MAX_OUTPUTS outputs;
 * validateMeshNetworkParams rejects larger geometries.
 */

#ifndef TENOC_NOC_ROUTER_HH
#define TENOC_NOC_ROUTER_HH

#include <array>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "noc/activity.hh"
#include "noc/arbiter.hh"
#include "noc/routing.hh"
#include "noc/slab.hh"
#include "noc/topology.hh"
#include "noc/vc_map.hh"

namespace tenoc
{

namespace telemetry
{
class ChromeTraceSink;
} // namespace telemetry

class LinkWheel;

/** Destination of ejected flits (implemented by NetworkInterface). */
class EjectionSink
{
  public:
    virtual ~EjectionSink() = default;
    /** @return true if one more flit fits in ejection buffer `port`. */
    virtual bool ejectReady(unsigned ej_port) const = 0;
    /** Delivers a flit to ejection buffer `port`. */
    virtual void ejectFlit(unsigned ej_port, const Flit &flit,
                           Cycle now) = 0;
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
    };

    /** Input VCs (inputs x VCs) one router takes: one mask word. */
    static constexpr unsigned MAX_INPUT_VCS = 64;
    /** Outputs one router takes: one switch-allocation mask word. */
    static constexpr unsigned MAX_OUTPUTS = 64;
    static_assert(MAX_INPUT_VCS <= 256 && MAX_OUTPUTS <= 256,
                  "InVc and OutVc hold ports and VCs in 8 bits");

    /**
     * Router viewing its network's arena: input VCs
     * [in_vc_base, in_vc_base + numInputs*vcs) and output VCs
     * [out_vc_base, out_vc_base + numOutputs*vcs) of `slab`, which must
     * already be configured and is not re-configured while the router
     * views it.  The router marks bit `id` of `active` whenever a flit
     * is pushed into its buffers (by its NI, or by the link wheel on
     * the flit's arrival cycle), and counts each switch traversal in
     * `counters.traversed`.
     */
    Router(NodeId id, const Topology &topo, const Routing &routing,
           const Params &params, VcSlabs &slab, std::size_t in_vc_base,
           std::size_t out_vc_base, ActiveSet &active,
           NetCounters &counters);

    NodeId id() const { return id_; }
    const Params &params() const { return params_; }
    unsigned numVcs() const { return nvcs_; }
    unsigned numInputs() const { return NUM_DIRS + params_.numInjPorts; }
    unsigned numOutputs() const { return NUM_DIRS + params_.numEjPorts; }

    /**
     * Wires output `d` to `down`'s opposite input over a new link of
     * `wheel`, which carries the flits down and the credits back, and
     * gives the output vcDepth credits per VC.  Both routers must view
     * the slab the wheel's credits land in.  @return the link's index.
     */
    unsigned connect(Direction d, Router &down, LinkWheel &wheel);
    /** Attaches the local NI as the ejection sink. */
    void setEjectionSink(EjectionSink *sink) { sink_ = sink; }

    // --- NI injection access (same node, zero-latency handshake) ---
    /** Free slots in injection-port buffer `inj` (0-based), VC `vc`. */
    unsigned
    injFreeSlots(unsigned inj, unsigned vc) const
    {
        return params_.vcDepth - inVc(NUM_DIRS + inj, vc).ringCount;
    }
    /** Pushes a flit into injection-port buffer `inj`. */
    void injectFlit(unsigned inj, const Flit &flit, Cycle now);

    // --- simulation phases (network drives these each icnt cycle) ---
    // One pipeline stage per call; MeshNetwork runs RC, VA and SA of
    // each active router in turn.  Each walks the set bits
    // of its stage mask and early-outs when the mask is empty — a case
    // in which running it would not change any state, return any
    // grant, or emit any trace event, so skipping is bit-exact.
    /** RC: assign output ports to idle VCs with buffered heads. */
    void routeCompute(Cycle now);
    /** VA: round-robin output-VC grants to routed head flits. */
    void vcAllocate(Cycle now);
    /** SA + ST: separable switch allocation, then traversal. */
    void switchAllocate(Cycle now);

    /**
     * @return true if no flits are buffered here (a mask test).  An
     * empty router is retired from the active set: ticking it changes
     * nothing until a flit is pushed into it, which marks it again.
     */
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
    void setTracer(telemetry::ChromeTraceSink *tracer) { tracer_ = tracer; }

    // --- introspection (invariant checker / watchdog / tests) ---
    /** Pipeline state of input VC (`in`, `vc`). */
    VcState vcState(unsigned in, unsigned vc) const
    {
        return inVc(in, vc).state;
    }
    /** Output port assigned to input VC (`in`, `vc`) by RC. */
    unsigned vcOutPort(unsigned in, unsigned vc) const
    {
        return inVc(in, vc).outPort;
    }
    /** Output VC granted to input VC (`in`, `vc`) by VA. */
    unsigned vcOutVc(unsigned in, unsigned vc) const
    {
        return inVc(in, vc).outVc;
    }
    /** Flits buffered on input VC (`in`, `vc`). */
    std::size_t vcOccupancy(unsigned in, unsigned vc) const
    {
        return inVc(in, vc).ringCount;
    }
    /** Enqueue cycle of input VC (`in`, `vc`)'s head flit as its record
     *  keeps it (meaningful while the VC buffers a flit). */
    Cycle vcHeadAt(unsigned in, unsigned vc) const
    {
        return inVc(in, vc).headAt;
    }
    /** Head flit of input VC (`in`, `vc`), or nullptr when empty. */
    const Flit *
    vcFront(unsigned in, unsigned vc) const
    {
        return inVc(in, vc).ringCount == 0
            ? nullptr : &slab_.frontFlit(iv(in, vc));
    }
    /** Credits held for downstream VC (`out`, `vc`). */
    unsigned outputCredits(unsigned out, unsigned vc) const
    {
        return outVc(out, vc).credits;
    }
    /** @return true if output VC (`out`, `vc`) is owned by a packet. */
    bool outputVcOwned(unsigned out, unsigned vc) const
    {
        return outVc(out, vc).owned != 0;
    }
    /** Owning input port of output VC (`out`, `vc`) (owned only). */
    unsigned outputVcOwnerIn(unsigned out, unsigned vc) const
    {
        return outVc(out, vc).ownerIn;
    }
    /** Owning input VC of output VC (`out`, `vc`) (owned only). */
    unsigned outputVcOwnerVc(unsigned out, unsigned vc) const
    {
        return outVc(out, vc).ownerVc;
    }
    /** @return true if direction output `d` is wired to a link. */
    bool
    outputConnected(unsigned d) const
    {
        return d < NUM_DIRS && outputs_[d].link != NO_LINK;
    }
    /** Calls f(in, vc, flit) for every buffered flit. */
    template <typename F>
    void
    forEachBufferedFlit(F &&f) const
    {
        for (unsigned in = 0; in < numInputs(); ++in) {
            for (unsigned vc = 0; vc < nvcs_; ++vc) {
                slab_.forEachRingFlit(
                    iv(in, vc), [&](const Flit &flit) { f(in, vc, flit); });
            }
        }
    }

    /**
     * The stage work sets, bit in * vcs + vc for input VC (`in`, `vc`).
     * They are derived from slab state and kept by the events that
     * change it (a push, RC, a VA grant, an SA pop or tail), so the
     * stages never rescan the state slab.
     */
    struct StageMasks
    {
        std::uint64_t rc = 0; ///< IDLE with a buffered head
        std::uint64_t va = 0; ///< VC_ALLOC
        std::uint64_t sa = 0; ///< ACTIVE with a buffered flit
        /** VC_ALLOC VCs by RC-assigned output: one set per output. */
        std::vector<std::uint64_t> vaReqs;
        /** Bit o: vaReqs[o] is non-empty (the outputs VA visits). */
        std::uint64_t vaOuts = 0;

        bool operator==(const StageMasks &) const = default;
    };

    /** The masks as kept by the pipeline events. */
    const StageMasks &stageMasks() const { return masks_; }

    /** The masks recomputed from slab state (invariant audit). */
    StageMasks deriveStageMasks() const;

    // --- mutation-test hook ---
    /**
     * Deliberately leaks one downstream credit on output VC
     * (`out`, `vc`): the buffer slot it represents is never usable
     * again.  No-op at zero credits.  @return true if a credit was
     * dropped.
     */
    bool
    dropCredit(unsigned out, unsigned vc)
    {
        auto &credits = out_vcs_[out * nvcs_ + vc].credits;
        if (credits == 0)
            return false;
        --credits;
        return true;
    }

    /** Deliberately flips output `out`'s bit of the VA output mask
     *  (StageMasks::vaOuts) without touching its requests. */
    void
    debugFlipVaOutput(unsigned out)
    {
        masks_.vaOuts ^= std::uint64_t{1} << out;
    }

  private:
    friend class LinkWheel;

    static constexpr unsigned NO_LINK = ~0u;

    /** Buffers `flit` on input `in`, files its VC in the RC or SA mask
     *  when the push makes it eligible there, and marks the router
     *  active. */
    void pushFlit(unsigned in, const Flit &flit, Cycle now);

    bool isInjection(unsigned in) const { return in >= NUM_DIRS; }
    bool isEjection(unsigned out) const { return out >= NUM_DIRS; }

    const InVc &
    inVc(unsigned in, unsigned vc) const
    {
        return in_vcs_[in * nvcs_ + vc];
    }
    const OutVc &
    outVc(unsigned out, unsigned vc) const
    {
        return out_vcs_[out * nvcs_ + vc];
    }

    /** Global slab index of input VC (`in`, `vc`). */
    std::size_t iv(unsigned in, unsigned vc) const
    {
        return in_base_ + in * nvcs_ + vc;
    }

    /** Chooses an ejection output port round-robin. */
    unsigned nextEjectionPort();

    NodeId id_;
    const Topology &topo_;
    Routing routing_;
    Params params_;
    unsigned nvcs_;
    EjectionSink *sink_ = nullptr;

    VcSlabs &slab_;
    std::size_t in_base_;  ///< first global input-VC index
    std::size_t out_base_; ///< first global output-VC index
    /// This router's records: input VC (in, vc) is in_vcs_[in * vcs +
    /// vc], output VC (out, vc) out_vcs_[out * vcs + vc].
    InVc *in_vcs_ = nullptr;
    OutVc *out_vcs_ = nullptr;

    struct OutputPort
    {
        unsigned link = NO_LINK;  ///< wheel link; none for ejection
        RoundRobinArbiter vaArb;  ///< VC-allocation arbiter
        RoundRobinArbiter saArb;  ///< switch output arbiter
    };
    std::vector<OutputPort> outputs_;

    /** Per direction input, the wheel link its credits return on. */
    std::array<unsigned, NUM_DIRS> in_links_;
    LinkWheel *wheel_ = nullptr;

    std::vector<RoundRobinArbiter> sa_input_arb_; ///< per input port
    unsigned ej_rr_ = 0;

    std::uint64_t flits_traversed_ = 0;
    std::array<std::uint64_t, NUM_DIRS> link_flits_{};
    telemetry::ChromeTraceSink *tracer_ = nullptr;

    ActiveSet &active_;
    NetCounters &counters_;

    StageMasks masks_;

    // Allocation scratch, hoisted out of the per-cycle loops so the
    // hot path performs no heap allocation.
    /** Per-output SA requestor sets, bit = input port: all zero between
     *  calls (the output stage clears each set it consumes). */
    std::vector<std::uint64_t> sa_out_reqs_;
    /** SA nominee per input port; only inputs with a request are read. */
    std::vector<unsigned> sa_nominee_;
};

} // namespace tenoc

#endif // TENOC_NOC_ROUTER_HH
