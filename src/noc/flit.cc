/**
 * @file
 * Packet/flit helpers.
 */

#include "noc/flit.hh"

#include "common/log.hh"

namespace tenoc
{

FreeListPool<Packet> &
packetPool()
{
    thread_local FreeListPool<Packet> pool;
    return pool;
}

PacketPtr
makePacket()
{
    Packet *p = packetPool().allocate();
    *p = Packet{}; // recycled objects carry their previous state
    return PacketPtr::adopt(p);
}

int
Packet::routeClass() const
{
    switch (mode) {
      case RouteMode::XY:
        return 0;
      case RouteMode::YX:
        return 1;
      case RouteMode::TWO_PHASE:
        // Phase 1 is a YX leg to the intermediate router; phase 2 an
        // XY leg to the destination (Sec. IV-B).
        return phase2 ? 0 : 1;
    }
    return 0;
}

unsigned
memOpBytes(MemOp op)
{
    // Sec. III-D: read requests are small 8-byte packets; write
    // requests and read replies are large 64-byte packets (control
    // header piggybacked on the line transfer, matching the 4-flit
    // replies of the paper's open-loop runs at 16-byte flits).
    switch (op) {
      case MemOp::READ_REQUEST: return 8;
      case MemOp::WRITE_REQUEST: return 64;
      case MemOp::READ_REPLY: return 64;
      case MemOp::WRITE_ACK: return 8;
    }
    return 8;
}

unsigned
flitsForBytes(unsigned bytes, unsigned flit_bytes)
{
    tenoc_assert(flit_bytes > 0, "flit size must be positive");
    return (bytes + flit_bytes - 1) / flit_bytes;
}

} // namespace tenoc
