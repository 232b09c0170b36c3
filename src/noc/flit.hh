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
 * refcount over a thread_local freelist pool); flits reference it.
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

    // --- routing state (set by RoutingAlgorithm::initPacket) ---
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

    /** Number of PacketPtrs sharing the packet (0 for null). */
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
 * One flit.  Flits move between routers over Channels; the VC field is
 * rewritten by each hop's switch allocation.
 */
struct Flit
{
    PacketPtr pkt;          ///< owning packet
    unsigned seq = 0;       ///< flit index within packet
    bool head = false;      ///< first flit (carries routing info)
    bool tail = false;      ///< last flit (releases VCs)
    unsigned vc = 0;        ///< virtual channel on the current link
    Cycle enqueueCycle = 0; ///< arrival time at the current buffer
};

/** Builds the flit sequence for a packet. */
void makeFlits(const PacketPtr &pkt, std::vector<Flit> &out);

class SnapshotWriter;
class SnapshotReader;

/**
 * Serializes a PacketPtr by identity: the first reference writes the
 * packet's contents inline, later references just its registry id, so
 * all flits of one packet resolve to one shared object on restore.
 */
void savePacket(SnapshotWriter &w, const PacketPtr &pkt);

/** Reads a packet reference written by savePacket(). */
PacketPtr loadPacket(SnapshotReader &r);

/** Serializes one flit (packet by reference, fields inline). */
void saveFlit(SnapshotWriter &w, const Flit &flit);

/** Reads a flit written by saveFlit(). */
Flit loadFlit(SnapshotReader &r);

} // namespace tenoc

#endif // TENOC_NOC_FLIT_HH
