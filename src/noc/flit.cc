/**
 * @file
 * Packet/flit helpers.
 */

#include "noc/flit.hh"

#include "common/log.hh"

namespace tenoc
{

namespace
{
thread_local std::size_t live_packets = 0;
} // namespace

std::size_t
livePackets()
{
    return live_packets;
}

void
PacketDeleter::operator()(Packet *p) const
{
    --live_packets;
    delete p;
}

PacketPtr
makePacket()
{
    ++live_packets;
    return PacketPtr(new Packet{});
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
