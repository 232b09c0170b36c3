/**
 * @file
 * Unit tests for packets and flits.
 */

#include <gtest/gtest.h>

#include "noc/flit.hh"

namespace tenoc
{
namespace
{

TEST(MemOpBytes, PaperPacketSizes)
{
    // Sec. III-D: small 8-byte requests, large 64-byte transfers.
    EXPECT_EQ(memOpBytes(MemOp::READ_REQUEST), 8u);
    EXPECT_EQ(memOpBytes(MemOp::WRITE_REQUEST), 64u);
    EXPECT_EQ(memOpBytes(MemOp::READ_REPLY), 64u);
    EXPECT_EQ(memOpBytes(MemOp::WRITE_ACK), 8u);
}

TEST(FlitsForBytes, SixteenByteChannels)
{
    EXPECT_EQ(flitsForBytes(8, 16), 1u);
    EXPECT_EQ(flitsForBytes(64, 16), 4u); // 4-flit replies (Fig. 21)
    EXPECT_EQ(flitsForBytes(65, 16), 5u);
}

TEST(FlitsForBytes, SlicedEightByteChannels)
{
    EXPECT_EQ(flitsForBytes(8, 8), 1u);
    EXPECT_EQ(flitsForBytes(64, 8), 8u);
}

TEST(FlitsForBytes, DoubleWidthChannels)
{
    EXPECT_EQ(flitsForBytes(8, 32), 1u);
    EXPECT_EQ(flitsForBytes(64, 32), 2u);
}

TEST(Packet, RouteClassFollowsMode)
{
    Packet p;
    p.mode = RouteMode::XY;
    EXPECT_EQ(p.routeClass(), 0);
    p.mode = RouteMode::YX;
    EXPECT_EQ(p.routeClass(), 1);
    p.mode = RouteMode::TWO_PHASE;
    p.phase2 = false;
    EXPECT_EQ(p.routeClass(), 1); // phase 1 is a YX leg
    p.phase2 = true;
    EXPECT_EQ(p.routeClass(), 0); // phase 2 is an XY leg
}

TEST(MakeFlits, HeadTailAndSequence)
{
    auto pkt = makePacket();
    pkt->sizeFlits = 4;
    for (unsigned i = 0; i < 4; ++i) {
        const Flit f = makeFlit(*pkt, i, 3);
        EXPECT_EQ(f.pkt, pkt.get());
        EXPECT_EQ(f.vc, 3u);
        EXPECT_EQ(f.seq, i);
        EXPECT_EQ(f.enqueueCycle, 0u);
        // Head first, tail last, body flits neither.
        EXPECT_EQ(f.head, i == 0) << i;
        EXPECT_EQ(f.tail, i == 3) << i;
    }
}

TEST(MakeFlits, SingleFlitIsHeadAndTail)
{
    auto pkt = makePacket();
    pkt->sizeFlits = 1;
    const Flit f = makeFlit(*pkt, 0, 1);
    EXPECT_TRUE(f.head);
    EXPECT_TRUE(f.tail);
    EXPECT_EQ(f.seq, 0u);
    EXPECT_EQ(f.vc, 1u);
}

TEST(MemOp, RequestClassification)
{
    EXPECT_TRUE(isRequest(MemOp::READ_REQUEST));
    EXPECT_TRUE(isRequest(MemOp::WRITE_REQUEST));
    EXPECT_FALSE(isRequest(MemOp::READ_REPLY));
    EXPECT_FALSE(isRequest(MemOp::WRITE_ACK));
}

TEST(MemOp, Names)
{
    EXPECT_STREQ(memOpName(MemOp::READ_REPLY), "READ_REPLY");
    EXPECT_STREQ(trafficClassName(TrafficClass::HH), "HH");
}

} // namespace
} // namespace tenoc
