/**
 * @file
 * ringFlit: a one-flit packet for the flit-ring tests of VcSlabs.
 */

#ifndef TENOC_TESTS_RING_FLIT_HH
#define TENOC_TESTS_RING_FLIT_HH

#include "noc/flit.hh"

namespace tenoc
{

/** The head-and-tail flit of a fresh one-flit packet on VC `vc`.  The
 *  flit owns its packet (see Flit): a ring that holds it deletes the
 *  packet, and a test that pops it must delete it (PacketDeleter). */
inline Flit
ringFlit(unsigned vc)
{
    PacketPtr pkt = makePacket();
    pkt->sizeFlits = 1;
    const Flit f = makeFlit(*pkt, 0, vc);
    pkt.release();
    return f;
}

} // namespace tenoc

#endif // TENOC_TESTS_RING_FLIT_HH
