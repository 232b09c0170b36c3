/**
 * @file
 * Packets and flits.
 *
 * A Packet is the unit injected by a network interface; it is broken
 * into one or more 16-byte (or 8-byte, for channel-sliced networks)
 * Flits for transmission.  The traffic mix follows Sec. III-D of the
 * paper: small read-request / write-ack packets and large write-request
 * / read-reply packets carrying a 64-byte cache line.
 */

#ifndef TENOC_NOC_FLIT_HH
#define TENOC_NOC_FLIT_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

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
 * One network packet.  Owned via PacketPtr (an intrusive, non-atomic
 * refcount over a thread_local freelist pool); flits point at it (see
 * Flit for who holds the reference while it is in the network).
 * The refcount must therefore only ever be touched by one thread.  A
 * simulation's cycle runs serially, and each parallel sweep point
 * (bench/sweep.hh) runs its whole simulation on one worker thread, so
 * every packet is allocated and released on the thread whose pool
 * owns it.
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

    /** Intrusive reference count (managed by PacketPtr; not atomic —
     *  see the struct comment on thread confinement). */
    std::uint32_t refCount = 0;
};

/** The thread-local packet pool backing makePacket(). */
FreeListPool<Packet> &packetPool();

/**
 * Intrusive smart pointer for pooled packets.  Copying bumps a plain
 * (non-atomic) counter; the last owner returns the packet to the
 * thread-local pool.  API mirrors the shared_ptr subset the simulator
 * uses (get/reset/bool/deref/compare).
 */
class PacketPtr
{
  public:
    PacketPtr() = default;
    PacketPtr(std::nullptr_t) {}

    /** Adopts a pooled packet; the pointer holds one new reference. */
    explicit PacketPtr(Packet *p) : p_(p)
    {
        if (p_)
            ++p_->refCount;
    }

    PacketPtr(const PacketPtr &o) : p_(o.p_)
    {
        if (p_)
            ++p_->refCount;
    }

    PacketPtr(PacketPtr &&o) noexcept : p_(o.p_) { o.p_ = nullptr; }

    /** Takes over one reference that `p` already carries (one that
     *  detach() let go of) without adding a new one. */
    static PacketPtr
    adopt(Packet *p)
    {
        PacketPtr ptr;
        ptr.p_ = p;
        return ptr;
    }

    PacketPtr &
    operator=(const PacketPtr &o)
    {
        if (this != &o) {
            drop();
            p_ = o.p_;
            if (p_)
                ++p_->refCount;
        }
        return *this;
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

    /** Lets go of the packet without dropping its reference: the
     *  caller now carries that reference (see adopt()). */
    Packet *
    detach()
    {
        Packet *p = p_;
        p_ = nullptr;
        return p;
    }

    /** Number of references to the packet (0 for null). */
    std::uint32_t use_count() const { return p_ ? p_->refCount : 0; }

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
        if (p_ && --p_->refCount == 0)
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
 * One flit: a plain 24-byte value, copied as bytes between NI slots,
 * router rings, the link wheel and ejection rings.  The VC field is
 * rewritten by each hop's switch allocation.
 *
 * Ownership: the packet's one network reference travels with its tail
 * flit.  The NI detaches its PacketPtr when it injects the tail, the
 * NI that drains the tail adopts it again, and a VC arena, link wheel
 * or ejection ring destroyed (or re-configured) mid-run returns the
 * references of the tails it still holds.  Head and body flits never
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

/** Builds the flit sequence for a packet on VC `vc`; the flits point
 *  at the packet but hold no reference. */
void makeFlits(const PacketPtr &pkt, std::vector<Flit> &out,
               unsigned vc = 0);

} // namespace tenoc

#endif // TENOC_NOC_FLIT_HH
