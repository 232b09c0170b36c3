/**
 * @file
 * The mesh against analytic bounds (Dally & Towles): what one flow can
 * sustain on an otherwise idle network.
 *
 * A lone flow is limited by the link (one flit per cycle) unless its
 * lane's buffers cannot cover the credit round trip: with one lane of
 * `vcDepth` buffers and a round trip of `rtt` cycles it sustains
 * min(1, vcDepth / rtt) flits per cycle.
 */

#include <gtest/gtest.h>

#include "noc/mesh_network.hh"

namespace tenoc
{
namespace
{

/** Accepts every packet. */
struct DropSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

/**
 * Keeps one reply flow from the top-left to the bottom-right corner of
 * a 6x6 mesh backlogged and @return the flits per cycle it delivers
 * once warm.
 */
double
loneFlowRate(unsigned flit_bytes, unsigned pipeline, unsigned vc_depth)
{
    MeshNetworkParams p;
    p.flitBytes = flit_bytes;
    p.vcsPerClass = 1;
    p.vcDepth = vc_depth;
    p.pipelineDepth = pipeline;
    p.halfPipelineDepth = pipeline;
    p.validate = true;
    MeshNetwork net(p);
    const Topology &topo = net.topology();
    DropSink sink;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sink);
    const NodeId src = topo.nodeAt(0, 0);
    const NodeId dst = topo.nodeAt(topo.cols() - 1, topo.rows() - 1);

    constexpr Cycle kWarmup = 500;
    constexpr Cycle kMeasure = 3000;
    std::uint64_t warm_flits = 0;
    for (Cycle now = 0; now < kWarmup + kMeasure; ++now) {
        if (now == kWarmup)
            warm_flits = net.stats().nodeEjectedFlits[dst];
        while (net.canInject(src, 1)) {
            auto pkt = makePacket();
            pkt->src = src;
            pkt->dst = dst;
            pkt->op = MemOp::READ_REPLY;
            pkt->protoClass = 1;
            pkt->sizeFlits = net.packetFlits(MemOp::READ_REPLY);
            pkt->sizeBytes = memOpBytes(MemOp::READ_REPLY);
            net.inject(std::move(pkt), now);
        }
        net.cycle(now);
    }
    const std::uint64_t flits =
        net.stats().nodeEjectedFlits[dst] - warm_flits;
    return static_cast<double>(flits) / kMeasure;
}

TEST(NocBounds, LoneFlowSaturatesLinkWithDeepBuffers)
{
    // Eight buffers cover the credit round trip of either router, so
    // the flow runs at line rate for 4-flit (16 B) and 8-flit (8 B)
    // replies alike.
    for (const unsigned pipeline : {3u, 4u}) {
        for (const unsigned flit_bytes : {16u, 8u}) {
            EXPECT_NEAR(loneFlowRate(flit_bytes, pipeline, 8), 1.0, 0.002)
                << pipeline << "-stage, " << flit_bytes << " B flits";
        }
    }
}

TEST(NocBounds, LoneFlowShallowBuffersExposeCreditRoundTrip)
{
    // Four buffers do not: the flow sustains 4/5 flit per cycle behind
    // 3-stage routers and 4/6 behind 4-stage ones, so the credit round
    // trip is 5 and 6 cycles (pipeline + link + credit return).
    const struct
    {
        unsigned pipeline;
        double rate;
    } cases[] = {{3, 4.0 / 5.0}, {4, 4.0 / 6.0}};
    for (const auto &c : cases) {
        for (const unsigned flit_bytes : {16u, 8u}) {
            EXPECT_NEAR(loneFlowRate(flit_bytes, c.pipeline, 4), c.rate,
                        0.002)
                << c.pipeline << "-stage, " << flit_bytes << " B flits";
        }
    }
}

} // namespace
} // namespace tenoc
