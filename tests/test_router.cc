/**
 * @file
 * Unit tests for the VC router: connectivity rules, pipeline latency,
 * credit flow, multi-port ejection, and the event-kept stage masks.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "router_pair.hh"

namespace tenoc
{
namespace
{

TopologyParams
cbParams()
{
    TopologyParams p;
    p.placement = McPlacement::CHECKERBOARD;
    p.checkerboardRouters = true;
    return p;
}

Router::Params
routerParams(bool half = false, unsigned inj = 1, unsigned ej = 1)
{
    Router::Params rp;
    rp.vcMap = VcMap{2, 1, 1};
    rp.vcDepth = 8;
    rp.pipelineDepth = half ? 3 : 4;
    rp.half = half;
    rp.numInjPorts = inj;
    rp.numEjPorts = ej;
    return rp;
}

/** One router's RC, VA and SA + ST stages for cycle `now`. */
void
computeStages(Router &r, Cycle now)
{
    r.routeCompute(now);
    r.vcAllocate(now);
    r.switchAllocate(now);
}

TEST(RouterConnectivity, FullRouterConnectsEverything)
{
    OneRouter one(routerParams(false), 2, 2);
    const Router &r = one.r;
    for (unsigned in = 0; in < NUM_DIRS; ++in) {
        // Full crossbar, U-turns included.
        for (unsigned out = 0; out < NUM_DIRS; ++out) {
            EXPECT_TRUE(r.connectivityAllows(in, out));
        }
        EXPECT_TRUE(r.connectivityAllows(in, NUM_DIRS)); // ejection
    }
    // injection reaches every output
    EXPECT_TRUE(r.connectivityAllows(NUM_DIRS, DIR_WEST));
    EXPECT_TRUE(r.connectivityAllows(NUM_DIRS, NUM_DIRS));
}

TEST(RouterConnectivity, HalfRouterRestrictsToStraightThrough)
{
    OneRouter one(routerParams(true), 1, 0, cbParams());
    const Router &r = one.r;
    // Fig. 13: E<->W and N<->S only.
    EXPECT_TRUE(r.connectivityAllows(DIR_WEST, DIR_EAST));
    EXPECT_TRUE(r.connectivityAllows(DIR_EAST, DIR_WEST));
    EXPECT_TRUE(r.connectivityAllows(DIR_NORTH, DIR_SOUTH));
    EXPECT_TRUE(r.connectivityAllows(DIR_SOUTH, DIR_NORTH));
    EXPECT_FALSE(r.connectivityAllows(DIR_WEST, DIR_NORTH));
    EXPECT_FALSE(r.connectivityAllows(DIR_WEST, DIR_SOUTH));
    EXPECT_FALSE(r.connectivityAllows(DIR_NORTH, DIR_EAST));
    EXPECT_FALSE(r.connectivityAllows(DIR_SOUTH, DIR_WEST));
    // Injection and ejection connect to everything (Sec. IV-A).
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        EXPECT_TRUE(r.connectivityAllows(NUM_DIRS, d));
        EXPECT_TRUE(r.connectivityAllows(d, NUM_DIRS));
    }
}

/** Two-router fixture: A --east--> B, NI sink at B.  It fires the
 *  pair's link wheel at the start of each cycle, as MeshNetwork does. */
class TwoRouterTest : public ::testing::Test, public EjectionSink
{
  protected:
    TwoRouterTest() : pair_(routerParams())
    {
        b_.setEjectionSink(this);
        a_.setEjectionSink(this);
    }

    bool ejectReady(unsigned) const override { return true; }

    void
    ejectFlit(unsigned, const Flit &flit, Cycle now) override
    {
        ejected_.emplace_back(now, flit);
        if (flit.tail) // the sink owns the tail's packet (see Flit)
            PacketDeleter{}(flit.pkt);
    }

    /** Injects a packet at A addressed to B and runs `cycles` more
     *  simulated cycles (time continues across calls). */
    void
    run(unsigned size_flits, Cycle cycles)
    {
        auto pkt = makePacket();
        pkt->src = topo_.nodeAt(0, 0);
        pkt->dst = topo_.nodeAt(1, 0);
        pkt->sizeFlits = size_flits;
        pkt->protoClass = 0;
        pkt->mode = RouteMode::XY;
        Packet &p = *pkt;
        pkt.release(); // the tail owns the packet (see Flit)
        unsigned next = 0;
        const Cycle end = now_ + cycles;
        for (; now_ < end; ++now_) {
            pair_.wheel.fire(now_);
            if (next < size_flits && a_.injFreeSlots(0, 0) > 0)
                a_.injectFlit(0, makeFlit(p, next++, 0), now_);
            computeStages(a_, now_);
            computeStages(b_, now_);
        }
    }

    Cycle now_ = 0;

    RouterPair pair_;
    const Topology &topo_ = pair_.topo;
    Router &a_ = pair_.a;
    Router &b_ = pair_.b;
    std::vector<std::pair<Cycle, Flit>> ejected_;
};

TEST_F(TwoRouterTest, SingleFlitHopLatency)
{
    run(1, 30);
    ASSERT_EQ(ejected_.size(), 1u);
    // Head injected at cycle 0 spends pipelineDepth = 4 cycles in A,
    // 1 cycle on the channel (arrives B at 5), and 4 cycles in B:
    // ejects at 9.  Per-hop latency is pipeline + channel = 5 cycles
    // (Sec. III-B's 5-cycle hops).
    EXPECT_EQ(ejected_[0].first, 9u);
}

TEST_F(TwoRouterTest, MultiFlitWormKeepsOrderAndStreams)
{
    run(4, 40);
    ASSERT_EQ(ejected_.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(ejected_[i].second.seq, i);
    // Body flits stream one per cycle behind the head.
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(ejected_[i].first, ejected_[i - 1].first + 1);
    EXPECT_EQ(a_.flitsTraversed(), 4u);
    EXPECT_EQ(b_.flitsTraversed(), 4u);
    EXPECT_TRUE(a_.empty());
    EXPECT_TRUE(b_.empty());
}

TEST_F(TwoRouterTest, CreditsRecoverAfterDrain)
{
    // Two back-to-back 8-flit packets exactly fill the 8-deep VC; the
    // second can only flow as credits return.
    run(8, 10);
    run(8, 120);
    EXPECT_EQ(ejected_.size(), 16u);
    EXPECT_TRUE(a_.empty());
    EXPECT_TRUE(b_.empty());
}

TEST(Router, AggressiveSingleCycleRouter)
{
    auto rp = routerParams();
    rp.pipelineDepth = 1;
    OneRouter one(rp, 0, 0);
    const Topology &topo = one.topo;
    Router &a = one.r;
    struct Sink : EjectionSink
    {
        bool ejectReady(unsigned) const override { return true; }
        void ejectFlit(unsigned, const Flit &, Cycle now) override
        {
            eject_time = now;
        }
        Cycle eject_time = INVALID_CYCLE;
    } sink;
    a.setEjectionSink(&sink);

    auto pkt = makePacket();
    pkt->src = topo.nodeAt(1, 0);
    pkt->dst = topo.nodeAt(0, 0);
    pkt->sizeFlits = 1;
    pkt->mode = RouteMode::XY;
    a.injectFlit(0, makeFlit(*pkt, 0, 0), 5);
    computeStages(a, 5);
    computeStages(a, 6);
    // 1-cycle router: one cycle of residency (2-cycle hops with the
    // 1-cycle channel, vs 5 for the 4-stage baseline).
    EXPECT_EQ(sink.eject_time, 6u);
}

TEST(Router, MultiEjectionPortsRoundRobin)
{
    OneRouter one(routerParams(false, 1, 2), 0, 0);
    const Topology &topo = one.topo;
    Router &r = one.r;
    struct Sink : EjectionSink
    {
        bool ejectReady(unsigned) const override { return true; }
        void ejectFlit(unsigned port, const Flit &flit, Cycle) override
        {
            ports.push_back(port);
            if (flit.tail) // the sink owns the tail's packet
                PacketDeleter{}(flit.pkt);
        }
        std::vector<unsigned> ports;
    } sink;
    r.setEjectionSink(&sink);

    // Two 1-flit packets on different VCs eject via different ports.
    for (int i = 0; i < 2; ++i) {
        auto pkt = makePacket();
        pkt->src = topo.nodeAt(1, 0);
        pkt->dst = topo.nodeAt(0, 0);
        pkt->sizeFlits = 1;
        pkt->protoClass = i; // distinct VCs
        pkt->mode = RouteMode::XY;
        const Flit f = makeFlit(*pkt, 0, static_cast<unsigned>(i));
        pkt.release(); // the tail owns the packet
        r.injectFlit(0, f, 0);
    }
    for (Cycle t = 0; t < 10; ++t)
        computeStages(r, t);
    ASSERT_EQ(sink.ports.size(), 2u);
    EXPECT_NE(sink.ports[0], sink.ports[1]);
}

TEST(Router, InjFreeSlotsTracksOccupancy)
{
    OneRouter one(routerParams(), 0, 0);
    const Topology &topo = one.topo;
    Router &r = one.r;
    EXPECT_EQ(r.injFreeSlots(0, 0), 8u);
    auto pkt = makePacket();
    pkt->src = topo.nodeAt(1, 0);
    pkt->dst = topo.nodeAt(0, 0);
    pkt->sizeFlits = 2;
    r.injectFlit(0, makeFlit(*pkt, 0, 0), 0);
    EXPECT_EQ(r.injFreeSlots(0, 0), 7u);
    EXPECT_EQ(r.bufferedFlits(), 1u);
    EXPECT_FALSE(r.empty());
}

/** Ejection sink recording (cycle, packet id, seq) per ejected flit. */
struct RecordingSink : EjectionSink
{
    bool ejectReady(unsigned) const override { return true; }

    void
    ejectFlit(unsigned, const Flit &flit, Cycle now) override
    {
        log.emplace_back(now, flit.pkt->id, flit.seq);
        if (flit.tail) // the sink owns the tail's packet (see Flit)
            PacketDeleter{}(flit.pkt);
    }

    std::vector<std::tuple<Cycle, std::uint64_t, unsigned>> log;
};

/** Flits of a `size`-flit protocol-class-0 packet from (1, 0) that
 *  ejects at (0, 0), all on VC 0. */
std::vector<Flit>
ejectingPacket(const Topology &topo, std::uint64_t id, unsigned size)
{
    auto pkt = makePacket();
    pkt->id = id;
    pkt->src = topo.nodeAt(1, 0);
    pkt->dst = topo.nodeAt(0, 0);
    pkt->sizeFlits = size;
    pkt->protoClass = 0;
    pkt->mode = RouteMode::XY;
    std::vector<Flit> flits;
    for (unsigned i = 0; i < size; ++i)
        flits.push_back(makeFlit(*pkt, i, 0));
    pkt.release(); // the tail owns the packet (see Flit)
    return flits;
}

/** Injects every flit of `flits` into injection port `inj` at `now`. */
void
injectAll(Router &r, unsigned inj, const std::vector<Flit> &flits,
          Cycle now)
{
    for (const Flit &f : flits)
        r.injectFlit(inj, f, now);
}

TEST(RouterStageMasks, HeadBehindDepartingTailIsRoutedNextCycle)
{
    // Packet 1's tail and packet 2's head share injection VC 0.  When
    // the tail leaves, the VC turns IDLE with a head already buffered:
    // that head must be routed by the very next RC.
    OneRouter one(routerParams(), 0, 0);
    const Topology &topo = one.topo;
    Router &r = one.r;
    RecordingSink sink;
    r.setEjectionSink(&sink);
    injectAll(r, 0, ejectingPacket(topo, 1, 2), 0);
    injectAll(r, 0, ejectingPacket(topo, 2, 1), 0);

    const unsigned inj = NUM_DIRS;
    for (Cycle t = 0; t <= 5; ++t)
        computeStages(r, t);
    // Pipeline depth 4: packet 1 ejects at cycles 4 and 5.
    ASSERT_EQ(sink.log.size(), 2u);
    EXPECT_EQ(sink.log[1], std::make_tuple(Cycle{5}, std::uint64_t{1}, 1u));
    ASSERT_NE(r.vcFront(inj, 0), nullptr);
    EXPECT_TRUE(r.vcFront(inj, 0)->head);
    EXPECT_EQ(r.vcState(inj, 0), VcState::IDLE);
    EXPECT_EQ(r.stageMasks(), r.deriveStageMasks());

    r.routeCompute(6);
    EXPECT_EQ(r.vcState(inj, 0), VcState::VC_ALLOC);
    r.vcAllocate(6);
    EXPECT_EQ(r.vcState(inj, 0), VcState::ACTIVE);
    r.switchAllocate(6);
    ASSERT_EQ(sink.log.size(), 3u);
    EXPECT_EQ(sink.log[2], std::make_tuple(Cycle{6}, std::uint64_t{2}, 0u));
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.stageMasks(), r.deriveStageMasks());
}

/**
 * Two injection ports contend for ejection output VC 0: a 3-flit
 * packet 1 on port 0 wins VA at cycle 0, so the 1-flit packet 2 on
 * port 1 waits in VC_ALLOC until packet 1's tail frees the VC at
 * cycle 6.
 */
struct VaWaitScenario
{
    VaWaitScenario() : one(routerParams(false, 2, 1), 0, 0)
    {
        r.setEjectionSink(&sink);
        injectAll(r, 0, ejectingPacket(one.topo, 1, 3), 0);
        injectAll(r, 1, ejectingPacket(one.topo, 2, 1), 0);
    }

    OneRouter one;
    Router &r = one.r;
    RecordingSink sink;
};

TEST(RouterStageMasks, VaRefusedHeadGrantedWhenTailFreesVc)
{
    VaWaitScenario s;
    const unsigned waiter = NUM_DIRS + 1;
    for (Cycle t = 0; t <= 6; ++t) {
        computeStages(s.r, t);
        // Refused for lack of a free output VC, the head keeps
        // requesting every cycle until the owner's tail leaves.
        EXPECT_EQ(s.r.vcState(waiter, 0), VcState::VC_ALLOC) << t;
        EXPECT_EQ(s.r.stageMasks(), s.r.deriveStageMasks()) << t;
    }
    ASSERT_EQ(s.sink.log.size(), 3u);
    EXPECT_EQ(s.sink.log[2], std::make_tuple(Cycle{6}, std::uint64_t{1}, 2u));
    EXPECT_FALSE(s.r.outputVcOwned(NUM_DIRS, 0));

    // The first VA after the tail freed the VC grants it.
    s.r.routeCompute(7);
    s.r.vcAllocate(7);
    EXPECT_EQ(s.r.vcState(waiter, 0), VcState::ACTIVE);
    EXPECT_EQ(s.r.outputVcOwnerIn(NUM_DIRS, 0), waiter);
    s.r.switchAllocate(7);
    ASSERT_EQ(s.sink.log.size(), 4u);
    EXPECT_EQ(s.sink.log[3], std::make_tuple(Cycle{7}, std::uint64_t{2}, 0u));
}

} // namespace
} // namespace tenoc
