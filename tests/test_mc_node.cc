/**
 * @file
 * Tests for the MC node (L2 bank + FR-FCFS DRAM + reply path) using a
 * scripted network.
 */

#include <gtest/gtest.h>

#include <deque>

#include "accel/mc_node.hh"

namespace tenoc
{
namespace
{

/** Minimal network stub capturing injected replies. */
class FakeNet : public Network
{
  public:
    FakeNet() : topo_(TopologyParams{}), stats_(topo_.numNodes()) {}

    const Topology &topology() const override { return topo_; }
    unsigned flitBytes() const override { return 16; }

    bool
    canInject(NodeId, int) const override
    {
        return space > 0;
    }

    unsigned injectSpace(NodeId, int) const override { return space; }

    void
    inject(PacketPtr pkt, Cycle) override
    {
        ASSERT_GT(space, 0u);
        --space;
        injected.push_back(std::move(pkt));
    }

    void setSink(NodeId, PacketSink *) override {}
    void cycle(Cycle) override {}
    bool drained() const override { return true; }
    NetStats &stats() override { return stats_; }

    unsigned space = 8;
    std::vector<PacketPtr> injected;

  private:
    Topology topo_;
    NetStats stats_;
};

McNodeParams
mcParams(double l2_hit = 0.0)
{
    McNodeParams p;
    p.l2.profileHitRate = l2_hit;
    p.l2.sizeBytes = 128 * 1024;
    p.l2.ways = 8;
    return p;
}

PacketPtr
request(NodeId src, MemOp op, Addr addr)
{
    auto pkt = makePacket();
    pkt->src = src;
    pkt->op = op;
    pkt->addr = addr;
    pkt->protoClass = 0;
    return pkt;
}

/** Drives both clock domains in the 602/1107 ratio. */
void
run(McNode &mc, Cycle icnt_cycles)
{
    static Cycle icnt = 0;
    static Cycle mem = 0;
    for (Cycle i = 0; i < icnt_cycles; ++i) {
        mc.memCycle(mem++);
        mc.icntCycle(icnt++);
        if (i % 2 == 0)
            mc.memCycle(mem++); // ~1.84 mem cycles per icnt cycle
    }
}

TEST(McNode, ReadMissGoesToDramAndReplies)
{
    FakeNet net;
    McNode mc(3, 0, mcParams(0.0), net, 1);
    ASSERT_TRUE(mc.tryReserve(*request(7, MemOp::READ_REQUEST, 0x40)));
    mc.deliver(request(7, MemOp::READ_REQUEST, 0x40), 0);
    run(mc, 200);
    ASSERT_EQ(net.injected.size(), 1u);
    EXPECT_EQ(net.injected[0]->op, MemOp::READ_REPLY);
    EXPECT_EQ(net.injected[0]->dst, 7u);
    EXPECT_EQ(net.injected[0]->src, 3u);
    EXPECT_EQ(net.injected[0]->addr, 0x40u);
    EXPECT_EQ(net.injected[0]->protoClass, 1);
    EXPECT_TRUE(mc.idle());
}

TEST(McNode, L2HitRepliesWithoutDram)
{
    FakeNet net;
    McNode mc(3, 0, mcParams(1.0), net, 2);
    mc.tryReserve(*request(5, MemOp::READ_REQUEST, 0x80));
    mc.deliver(request(5, MemOp::READ_REQUEST, 0x80), 0);
    run(mc, 40);
    ASSERT_EQ(net.injected.size(), 1u);
    EXPECT_EQ(mc.dram().servedRequests(), 0u);
}

TEST(McNode, WritesAreFireAndForget)
{
    FakeNet net;
    McNode mc(3, 0, mcParams(0.0), net, 3);
    mc.tryReserve(*request(5, MemOp::WRITE_REQUEST, 0x100));
    mc.deliver(request(5, MemOp::WRITE_REQUEST, 0x100), 0);
    run(mc, 300);
    EXPECT_TRUE(net.injected.empty()); // no reply for writes
    EXPECT_EQ(mc.dram().servedRequests(), 1u);
    EXPECT_TRUE(mc.idle());
}

TEST(McNode, InputQueueBackpressure)
{
    FakeNet net;
    auto params = mcParams(0.0);
    params.inputQueueCap = 2;
    McNode mc(3, 0, params, net, 4);
    EXPECT_TRUE(mc.tryReserve(*request(1, MemOp::READ_REQUEST, 0)));
    EXPECT_TRUE(mc.tryReserve(*request(1, MemOp::READ_REQUEST, 64)));
    EXPECT_FALSE(mc.tryReserve(*request(1, MemOp::READ_REQUEST, 128)));
    mc.deliver(request(1, MemOp::READ_REQUEST, 0), 0);
    // Delivery converts a reservation into queue occupancy; capacity
    // frees only once the L2 consumes the request.
    EXPECT_FALSE(mc.tryReserve(*request(1, MemOp::READ_REQUEST, 128)));
    run(mc, 5);
    EXPECT_TRUE(mc.tryReserve(*request(1, MemOp::READ_REQUEST, 128)));
}

TEST(McNode, StallCountedWhenNetworkBlocked)
{
    FakeNet net;
    net.space = 0; // reply network never accepts
    McNode mc(3, 0, mcParams(1.0), net, 5);
    mc.tryReserve(*request(5, MemOp::READ_REQUEST, 0));
    mc.deliver(request(5, MemOp::READ_REQUEST, 0), 0);
    run(mc, 100);
    EXPECT_TRUE(net.injected.empty());
    EXPECT_GT(mc.stallFraction(), 0.5);
    net.space = 8;
    run(mc, 50);
    EXPECT_EQ(net.injected.size(), 1u);
}

TEST(McNode, ManyRequestsAllServed)
{
    FakeNet net;
    net.space = 1u << 20;
    McNode mc(3, 0, mcParams(0.3), net, 6);
    unsigned delivered = 0;
    for (unsigned i = 0; i < 64; ++i) {
        auto pkt = request(static_cast<NodeId>(i % 28),
                           MemOp::READ_REQUEST, i * 64);
        if (mc.tryReserve(*pkt)) {
            mc.deliver(std::move(pkt), 0);
            ++delivered;
        }
        run(mc, 8);
    }
    run(mc, 3000);
    EXPECT_EQ(net.injected.size(), delivered);
    EXPECT_TRUE(mc.idle());
    EXPECT_GT(mc.requestsServed(), 0u);
}

TEST(McNodeDeath, ReplyDeliveredToMcPanics)
{
    FakeNet net;
    McNode mc(3, 0, mcParams(0.0), net, 7);
    auto pkt = request(1, MemOp::READ_REPLY, 0);
    mc.tryReserve(*pkt);
    EXPECT_DEATH(mc.deliver(std::move(pkt), 0), "non-request");
}

} // namespace
} // namespace tenoc
