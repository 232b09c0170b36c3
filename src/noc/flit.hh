/**
 * @file
 * Packets and flits.
 *
 * A Packet is the unit injected by a network interface; it is broken
 * into one or more 16-byte (or 8-byte, for channel-sliced networks)
 * Flits for transmission.  The traffic mix follows Sec. III-D of the
 * paper: small read-request / write-ack packets and large write-request
 * / read-reply packets carrying a 64-byte cache line.  A network
 * interface builds each flit (makeFlit) only when it streams it into
 * the router.
 */

#ifndef TENOC_NOC_FLIT_HH
#define TENOC_NOC_FLIT_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/pool.hh"
#include "common/types.hh"

namespace tenoc
{

/** Routing mode chosen for a packet at injection time. */
enum class RouteMode : std::uint8_t
{
    XY,       ///< dimension-order, X first
    YX,       ///< dimension-order, Y first (CR "header bit" set)
    TWO_PHASE ///< CR: YX to an intermediate full router, then XY
};

/**
 * One network packet.  Owned by exactly one PacketPtr at a time (a
 * move-only handle over a thread_local freelist pool); flits point at
 * it (see Flit for which flit carries that ownership while the packet
 * is in the network).  A simulation's cycle runs serially, and each
 * parallel sweep point (bench/sweep.hh) runs its whole simulation on
 * one worker thread, so every packet is allocated and released on the
 * thread whose pool owns it.
 */
struct Packet
{
    std::uint64_t id = 0;          ///< unique id (assigned by network)
    NodeId src = INVALID_NODE;     ///< source node
    NodeId dst = INVALID_NODE;     ///< destination node
    MemOp op = MemOp::READ_REQUEST;///< semantic payload type
    unsigned sizeFlits = 1;        ///< length in flits
    unsigned sizeBytes = 8;        ///< semantic size in bytes
    int protoClass = 0;            ///< 0 = request, 1 = reply
    Addr addr = 0;                 ///< memory address (closed loop)
    std::uint64_t tag = 0;         ///< opaque payload handle

    // --- routing state (set by Routing::initPacket) ---
    RouteMode mode = RouteMode::XY;
    NodeId intermediate = INVALID_NODE; ///< TWO_PHASE waypoint
    bool phase2 = false;           ///< TWO_PHASE: reached waypoint

    // --- timing (interconnect cycles) ---
    /** Creation time; stamped by the source (or, if unset, by the NI
     *  at enqueue) so latency includes source-side queueing. */
    Cycle createdCycle = INVALID_CYCLE;
    Cycle injectedCycle = INVALID_CYCLE; ///< head flit entered router
    Cycle headEjectedCycle = INVALID_CYCLE; ///< head flit left network
    Cycle ejectedCycle = INVALID_CYCLE;  ///< tail flit left network

    /** Current routing class: 0 for an XY leg, 1 for a YX leg. */
    int routeClass() const;
};

/** The thread-local packet pool backing makePacket(). */
FreeListPool<Packet> &packetPool();

/**
 * Move-only owner of a pooled packet: destroying or resetting a
 * non-null pointer returns the packet to the thread-local pool.  The
 * API is the unique_ptr subset the simulator uses (get/reset/bool/
 * deref/compare), plus adopt()/detach() for handing the ownership to
 * a tail flit and back.
 */
class PacketPtr
{
  public:
    PacketPtr() = default;
    PacketPtr(std::nullptr_t) {}
    PacketPtr(PacketPtr &&o) noexcept : p_(o.p_) { o.p_ = nullptr; }

    /** Takes over the ownership of pooled packet `p` (one that
     *  detach() let go of, or a fresh one from the pool). */
    static PacketPtr
    adopt(Packet *p)
    {
        PacketPtr ptr;
        ptr.p_ = p;
        return ptr;
    }

    PacketPtr &
    operator=(PacketPtr &&o) noexcept
    {
        if (this != &o) {
            drop();
            p_ = o.p_;
            o.p_ = nullptr;
        }
        return *this;
    }

    ~PacketPtr() { drop(); }

    Packet *get() const { return p_; }
    Packet &operator*() const { return *p_; }
    Packet *operator->() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }

    void
    reset()
    {
        drop();
        p_ = nullptr;
    }

    /** Lets go of the packet without returning it to the pool: the
     *  caller now owns it (see adopt()). */
    Packet *
    detach()
    {
        Packet *p = p_;
        p_ = nullptr;
        return p;
    }

    friend bool
    operator==(const PacketPtr &a, const PacketPtr &b)
    {
        return a.p_ == b.p_;
    }
    friend bool
    operator!=(const PacketPtr &a, const PacketPtr &b)
    {
        return a.p_ != b.p_;
    }
    friend bool
    operator==(const PacketPtr &a, std::nullptr_t)
    {
        return a.p_ == nullptr;
    }
    friend bool
    operator!=(const PacketPtr &a, std::nullptr_t)
    {
        return a.p_ != nullptr;
    }

  private:
    void
    drop()
    {
        if (p_)
            packetPool().release(p_);
    }

    Packet *p_ = nullptr;
};

/** Allocates a default-initialized packet from the thread-local pool. */
PacketPtr makePacket();

/** Returns the semantic byte size for a MemOp (8 B header convention). */
unsigned memOpBytes(MemOp op);

/** Number of flits for `bytes` payload with `flit_bytes` channels. */
unsigned flitsForBytes(unsigned bytes, unsigned flit_bytes);

/**
 * One flit: a plain 24-byte value, copied as bytes between router
 * rings, the link wheel and ejection rings.  The VC field is
 * rewritten by each hop's switch allocation.
 *
 * Ownership: the packet travels with its tail flit.  The NI detaches
 * its PacketPtr when it injects the tail, the NI that drains the tail
 * adopts it again, and a VC arena, link wheel or ejection ring
 * destroyed (or re-configured) mid-run returns the packets of the
 * tails it still holds to the pool.  Head and body flits never
 * outlive their tail in the network (a worm stays in order on its
 * VCs), so their bare pointer stays valid.
 */
struct Flit
{
    Packet *pkt = nullptr;     ///< the packet (see ownership above)
    Cycle enqueueCycle = 0;    ///< arrival time at the current buffer
    std::uint32_t vc = 0;      ///< virtual channel on the current link
    std::uint16_t seq = 0;     ///< flit index within packet
    bool head = false;         ///< first flit (carries routing info)
    bool tail = false;         ///< last flit (releases VCs)
};
static_assert(sizeof(Flit) == 24 && std::is_trivially_copyable_v<Flit>);

/** Flit `seq` of `pkt` on VC `vc`; it points at the packet but does
 *  not own it. */
inline Flit
makeFlit(Packet &pkt, unsigned seq, unsigned vc)
{
    Flit f;
    f.pkt = &pkt;
    f.vc = vc;
    f.seq = static_cast<std::uint16_t>(seq);
    f.head = seq == 0;
    f.tail = seq + 1 == pkt.sizeFlits;
    return f;
}

} // namespace tenoc

#endif // TENOC_NOC_FLIT_HH
