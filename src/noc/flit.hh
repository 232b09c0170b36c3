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
#include <memory>
#include <type_traits>

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
 * One network packet.  Owned by exactly one PacketPtr at a time; flits
 * point at it (see Flit for which flit carries that ownership while the
 * packet is in the network).
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

/** Packets made by makePacket() on this thread and not yet deleted
 *  (a simulation makes and deletes its packets on one thread). */
std::size_t livePackets();

/** Deletes a packet made by makePacket() and uncounts it. */
struct PacketDeleter
{
    void operator()(Packet *p) const;
};

/** The one owner of a packet.  The tail-flit hand-off is release()
 *  when the NI injects the tail and PacketPtr(p) when it is drained
 *  (see Flit). */
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/** Allocates a default-initialized packet; the one allocation point. */
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
 * Ownership: the packet travels with its tail flit.  The NI releases
 * its PacketPtr when it injects the tail, the NI that drains the tail
 * wraps it in a PacketPtr again, and a VC arena, link wheel or
 * ejection ring destroyed (or re-configured) mid-run deletes the
 * packets of the tails it still holds.  Head and body flits never
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
