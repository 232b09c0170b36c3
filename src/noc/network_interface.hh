/**
 * @file
 * Network interface (NI): the glue between a node (compute core or MC)
 * and its router.
 *
 * Injection side: per-protocol-class packet queues; each injection
 * port streams one flit per cycle into the router's injection buffer
 * (this per-port limit is exactly the terminal bandwidth that the
 * paper's multi-port MC routers raise).
 *
 * Ejection side: a small flit buffer per ejection port drained at one
 * flit per cycle into the node, with backpressure through
 * PacketSink::tryReserve (an MC whose request queue is full blocks the
 * ejection buffer, which backs up into the network).
 */

#ifndef TENOC_NOC_NETWORK_INTERFACE_HH
#define TENOC_NOC_NETWORK_INTERFACE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "noc/network.hh"
#include "noc/router.hh"

namespace tenoc
{

/** NI configuration. */
struct NiParams
{
    unsigned injQueueCap = 8;    ///< packets per protocol class
    /** Flit slots per ejection port.  Sized to hold several maximum-
     *  size packets so one in-flight write worm cannot head-of-line
     *  block the node interface. */
    unsigned ejBufferFlits = 32;
};

/** Snapshot of one NI's bookkeeping (invariant checker / watchdog). */
struct NiAuditInfo
{
    unsigned queuedPackets = 0;   ///< packets waiting in class queues
    unsigned activeSlots = 0;     ///< packets mid-injection
    unsigned pendingInject = 0;   ///< NI's cached queued+active counter
    unsigned ejFlits = 0;         ///< flits buffered across ej ports
    unsigned ejTails = 0;         ///< tail flits among those
    unsigned ejOccupancyCounter = 0; ///< NI's cached ejection counter
    unsigned maxEjPortOccupancy = 0; ///< fullest single ejection port
    unsigned ejCapacity = 0;      ///< configured flits per ej port
    bool idle = false;
    /** Earliest createdCycle among held packets (INVALID_CYCLE if none). */
    Cycle oldestCreated = INVALID_CYCLE;

    /** A queued packet whose cached base VC differs from its own. */
    struct StaleBase
    {
        unsigned cls;    ///< protocol-class queue
        unsigned pos;    ///< entry, 0 = front
        unsigned cached; ///< base VC stored at enqueue
        unsigned actual; ///< VcMap::baseVc of the packet now
    };
    /** The first such entry, if any. */
    std::optional<StaleBase> staleBase;
};

class NetworkInterface : public EjectionSink
{
  public:
    /**
     * @param node node id; also this NI's index into `slab`'s per-NI
     *        arrays and its bit in `active`
     * @param router local router (already constructed)
     * @param vc_map network VC organization
     * @param params NI configuration
     * @param stats shared network statistics block
     * @param slab the network's NI arena (see NiSlabs), already
     *        configured
     * @param active the network's NI active set: the NI marks itself
     *        when a packet is enqueued or a flit ejected into it
     * @param counters the network's running counters: packets in
     *        flight, flits into routers and out of ejection buffers
     */
    NetworkInterface(NodeId node, Router &router, const VcMap &vc_map,
                     const NiParams &params, NetStats &stats,
                     NiSlabs &slab, ActiveSet &active,
                     NetCounters &counters);

    NodeId node() const { return node_; }

    void setSink(PacketSink *sink) { sink_ = sink; }

    /** Snapshot of queue/buffer bookkeeping for the checker. */
    NiAuditInfo audit() const;

    /** Attaches (or detaches, with nullptr) a flit-event tracer. */
    void setTracer(telemetry::ChromeTraceSink *tracer) { tracer_ = tracer; }

    /** @return true if one more packet fits in the class queue. */
    bool canInject(int proto_class) const;

    /** @return free packet slots in the class queue. */
    unsigned injectSpace(int proto_class) const;

    /** Queues a packet (route must already be initialized). */
    void enqueue(PacketPtr pkt, Cycle now);

    /** Streams flits into the router; call once per icnt cycle. */
    void injectPhase(Cycle now);

    /** Drains ejection buffers into the node; once per icnt cycle. */
    void drainPhase(Cycle now);

    // EjectionSink
    bool ejectReady(unsigned ej_port) const override;
    void ejectFlit(unsigned ej_port, const Flit &flit,
                   Cycle now) override;

    /** @return true when all queues and buffers are empty. */
    bool idle() const;

  private:
    /** Tries to assign one queued packet to a free (port, vc) slot. */
    bool refillOne(Cycle now);

    NodeId node_; ///< also the index into the arena's per-NI arrays
    Router &router_;
    VcMap vc_map_;
    NiParams params_;
    NetStats &stats_;
    PacketSink *sink_ = nullptr;
    telemetry::ChromeTraceSink *tracer_ = nullptr;
    ActiveSet &active_;
    NetCounters &counters_;

    /**
     * SoA hot state: injection class queues, one in-flight packet per
     * (injection port, VC) — which removes NI head-of-line blocking
     * while keeping the 1 flit/cycle/port terminal bandwidth that
     * multi-port MC routers raise — and per-port ejection rings, all
     * stored in the network's NiSlabs arena.  The pending-inject and
     * ejection-occupancy counters live there too, so the network's
     * phase loops early-out with one contiguous array read per NI.
     */
    NiSlabs &nslab_;
    std::size_t qbase_ = 0; ///< first class-queue index (ni * classes)
    std::size_t sbase_ = 0; ///< first active-slot index
    std::size_t ebase_ = 0; ///< first ejection-ring index
    unsigned ports_ = 0;    ///< injection ports
    unsigned ej_ports_ = 0; ///< ejection ports
    unsigned vcs_ = 0;      ///< VCs per port

    std::vector<unsigned> lane_rr_;                 ///< per class
    std::vector<unsigned> vc_rr_;                   ///< per port
    unsigned class_rr_ = 0;
    unsigned port_rr_ = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_NETWORK_INTERFACE_HH
