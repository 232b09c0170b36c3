/**
 * @file
 * The mesh against analytic bounds (Dally & Towles): what one flow can
 * sustain on an otherwise idle network.
 *
 * A lone flow is limited by the link (one flit per cycle) unless its
 * lane's buffers cannot cover the credit round trip: with one lane of
 * `vcDepth` buffers and a round trip of `rtt` cycles it sustains
 * min(1, vcDepth / rtt) flits per cycle.
 *
 * Many-to-few traffic is limited by the MCs' injection terminals: each
 * MC injects at most one reply flit per cycle.
 */

#include <gtest/gtest.h>

#include <memory>

#include "accel/experiments.hh"
#include "noc/mesh_network.hh"
#include "noc/openloop.hh"
#include "noc/traffic.hh"

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

/** CP-CR open-loop many-to-few: 1-flit requests, 4-flit replies. */
OpenLoopParams
manyToFew(double rate)
{
    OpenLoopParams p;
    p.net = makeConfig(ConfigId::CP_CR_4VC).mesh;
    p.injectionRate = rate;
    p.requestFlits = 1;
    p.replyFlits = 4;
    p.seed = 2024;
    return p;
}

/** Reply flits each MC injects per cycle over cycles [2000, 6000)
 *  of a many-to-few run at `rate`. */
std::vector<double>
replyFlitsPerMc(double rate)
{
    const OpenLoopParams p = manyToFew(rate);
    MeshNetwork net(p.net);
    const Topology &topo = net.topology();
    Accumulator req_lat("req_latency");
    Accumulator rep_lat("rep_latency");
    DestinationChooser dests(topo.mcNodes(), 0.0);
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<std::unique_ptr<OpenLoopSource>> sources;
    std::vector<std::unique_ptr<CollectorSink>> cores;
    std::vector<std::unique_ptr<McEchoSink>> mcs;
    for (NodeId n : topo.computeNodes()) {
        rngs.push_back(std::make_unique<Rng>(deriveStreamSeed(p.seed, n)));
        sources.push_back(std::make_unique<OpenLoopSource>(
            n, rate, p.requestFlits, dests, net, *rngs.back()));
        cores.push_back(std::make_unique<CollectorSink>(rep_lat));
        net.setSink(n, cores.back().get());
    }
    for (NodeId n : topo.mcNodes()) {
        mcs.push_back(std::make_unique<McEchoSink>(n, p.replyFlits, net,
                                                   req_lat));
        net.setSink(n, mcs.back().get());
    }
    constexpr Cycle kWarmup = 2000;
    constexpr Cycle kMeasure = 4000;
    std::vector<std::uint64_t> warm(topo.numNodes());
    for (Cycle now = 0; now < kWarmup + kMeasure; ++now) {
        if (now == kWarmup)
            warm = net.stats().nodeInjectedFlits;
        for (auto &s : sources)
            s->cycle(now, false);
        for (auto &m : mcs)
            m->cycle(now);
        net.cycle(now);
    }
    std::vector<double> rates;
    for (NodeId mc : topo.mcNodes()) {
        rates.push_back(static_cast<double>(
                            net.stats().nodeInjectedFlits[mc] - warm[mc]) /
                        kMeasure);
    }
    return rates;
}

TEST(NocBounds, ManyToFewSaturatesAtTerminalLimit)
{
    // 28 compute nodes share 8 MCs, and each request comes back as a
    // 4-flit reply, so each MC must inject 28 * 4 / 8 = 14 flits per
    // unit of request rate r.  One injection port carries one flit per
    // cycle: r <= 1/14 ~= 0.0714.
    const double bound = 1.0 / 14.0;
    // Measured (seed 2024, the fig21_openloop settings): 0.064 runs
    // unsaturated and 0.066 saturates, 0.91 of the bound, since
    // uniform-random MC picks load the busiest MC above the mean.
    double saturation = 0.0;
    for (double rate = 0.060; rate < bound; rate += 0.002) {
        if (runOpenLoop(manyToFew(rate)).saturated) {
            saturation = rate;
            break;
        }
    }
    EXPECT_GT(saturation, 0.0605) << "saturates below 0.062";
    EXPECT_LT(saturation, 0.0675) << "still unsaturated at 0.066";

    // Overloaded well past the bound, no MC injects more than one
    // reply flit per cycle, and the busiest reaches its terminal limit.
    // Measured: busiest 0.983, mean 0.853 flits per cycle.
    const std::vector<double> per_mc = replyFlitsPerMc(0.1);
    double busiest = 0.0;
    for (const double r : per_mc) {
        EXPECT_LE(r, 1.0);
        busiest = std::max(busiest, r);
    }
    EXPECT_GT(busiest, 0.95);
}

} // namespace
} // namespace tenoc
