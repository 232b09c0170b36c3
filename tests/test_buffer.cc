/**
 * @file
 * Unit tests for input VC buffers: the InVc records and flit rings of
 * one router input port in a VcSlabs arena.
 */

#include <gtest/gtest.h>

#include "noc/slab.hh"
#include "ring_flit.hh"

namespace tenoc
{
namespace
{

/** An arena holding one input port: `vcs` rings of `depth` flits. */
VcSlabs
portSlab(unsigned vcs, unsigned depth)
{
    VcSlabs s;
    s.configure(vcs, 0, depth);
    return s;
}

/** Pops VC `vc`'s front flit and @return its seq.  The popper owns the
 *  packet a tail carries (see Flit) and deletes it here. */
unsigned
popSeq(VcSlabs &port, unsigned vc)
{
    const Flit f = port.popFlit(vc);
    if (f.tail)
        PacketDeleter{}(f.pkt);
    return f.seq;
}

TEST(InputPort, PushPopFifoOrder)
{
    VcSlabs port = portSlab(2, 4);
    auto a = ringFlit(0);
    a.seq = 1;
    auto b = ringFlit(0);
    b.seq = 2;
    port.pushFlit(0, a, 10);
    port.pushFlit(0, b, 11);
    EXPECT_EQ(port.in[0].ringCount, 2u);
    EXPECT_EQ(port.frontFlit(0).seq, 1u);
    EXPECT_EQ(port.frontFlit(0).enqueueCycle, 10u);
    EXPECT_EQ(port.in[0].headAt, 10u);
    EXPECT_EQ(popSeq(port, 0), 1u);
    EXPECT_EQ(port.in[0].headAt, 11u);
    EXPECT_EQ(popSeq(port, 0), 2u);
    EXPECT_EQ(port.in[0].ringCount, 0u);
}

TEST(InputPort, VcsAreIndependent)
{
    VcSlabs port = portSlab(3, 2);
    port.pushFlit(0, ringFlit(0), 0);
    port.pushFlit(2, ringFlit(2), 0);
    EXPECT_EQ(port.in[0].ringCount, 1u);
    EXPECT_EQ(port.in[1].ringCount, 0u);
    EXPECT_EQ(port.in[2].ringCount, 1u);
    EXPECT_EQ(port.depth() - port.in[0].ringCount, 1u);
    EXPECT_EQ(port.depth() - port.in[1].ringCount, 2u);
    unsigned total = 0;
    for (const InVc &v : port.in)
        total += v.ringCount;
    EXPECT_EQ(total, 2u);
}

TEST(InputPort, StateMachineFields)
{
    VcSlabs port = portSlab(2, 4);
    EXPECT_EQ(port.in[0].state, VcState::IDLE);
    port.in[0].state = VcState::ACTIVE;
    port.in[0].outPort = 3;
    port.in[0].outVc = 1;
    EXPECT_EQ(port.in[0].state, VcState::ACTIVE);
    EXPECT_EQ(port.in[0].outPort, 3u);
    EXPECT_EQ(port.in[0].outVc, 1u);
    EXPECT_EQ(port.in[1].state, VcState::IDLE);
}

TEST(InputPortDeath, OverflowPanics)
{
    VcSlabs port = portSlab(1, 2);
    port.pushFlit(0, ringFlit(0), 0);
    port.pushFlit(0, ringFlit(0), 1);
    EXPECT_DEATH(port.pushFlit(0, ringFlit(0), 2), "overflow");
}

TEST(InputPortDeath, PopEmptyPanics)
{
    VcSlabs port = portSlab(1, 2);
    EXPECT_DEATH(port.popFlit(0), "empty");
}

} // namespace
} // namespace tenoc
