/**
 * @file
 * Unit tests for input-port VC buffers.
 */

#include <gtest/gtest.h>

#include "noc/buffer.hh"

namespace tenoc
{
namespace
{

Flit
makeFlit(unsigned vc, bool head = true, bool tail = true)
{
    auto pkt = makePacket();
    pkt->sizeFlits = 1;
    Flit f;
    f.pkt = pkt.detach(); // the flit keeps the packet alive
    f.head = head;
    f.tail = tail;
    f.vc = vc;
    return f;
}

/** Pops VC `vc`'s front flit and @return its seq.  The popper owns the
 *  reference a tail carries (see Flit) and returns it here. */
unsigned
popSeq(InputPort &port, unsigned vc)
{
    const Flit f = port.pop(vc);
    if (f.tail)
        PacketPtr::adopt(f.pkt).reset();
    return f.seq;
}

TEST(InputPort, PushPopFifoOrder)
{
    InputPort port(2, 4);
    auto a = makeFlit(0);
    a.seq = 1;
    auto b = makeFlit(0);
    b.seq = 2;
    port.push(a, 10);
    port.push(b, 11);
    EXPECT_EQ(port.occupancy(0), 2u);
    EXPECT_EQ(port.front(0).seq, 1u);
    EXPECT_EQ(port.front(0).enqueueCycle, 10u);
    EXPECT_EQ(popSeq(port, 0), 1u);
    EXPECT_EQ(popSeq(port, 0), 2u);
    EXPECT_TRUE(port.empty(0));
}

TEST(InputPort, VcsAreIndependent)
{
    InputPort port(3, 2);
    port.push(makeFlit(0), 0);
    port.push(makeFlit(2), 0);
    EXPECT_EQ(port.occupancy(0), 1u);
    EXPECT_EQ(port.occupancy(1), 0u);
    EXPECT_EQ(port.occupancy(2), 1u);
    EXPECT_EQ(port.freeSlots(0), 1u);
    EXPECT_EQ(port.freeSlots(1), 2u);
    EXPECT_EQ(port.totalOccupancy(), 2u);
}

TEST(InputPort, StateMachineFields)
{
    InputPort port(2, 4);
    EXPECT_EQ(port.state(0), VcState::IDLE);
    port.setState(0, VcState::ACTIVE);
    port.setOutPort(0, 3);
    port.setOutVc(0, 1);
    EXPECT_EQ(port.state(0), VcState::ACTIVE);
    EXPECT_EQ(port.outPort(0), 3u);
    EXPECT_EQ(port.outVc(0), 1u);
    EXPECT_EQ(port.state(1), VcState::IDLE);
}

TEST(InputPortDeath, OverflowPanics)
{
    InputPort port(1, 2);
    port.push(makeFlit(0), 0);
    port.push(makeFlit(0), 1);
    EXPECT_DEATH(port.push(makeFlit(0), 2), "overflow");
}

TEST(InputPortDeath, PopEmptyPanics)
{
    InputPort port(1, 2);
    EXPECT_DEATH(port.pop(0), "empty");
}

} // namespace
} // namespace tenoc
