/**
 * @file
 * Deadlock/livelock watchdog tests on real backpressure: a sink whose
 * tryReserve always refuses blocks ejection at one destination, so a
 * packet addressed there never leaves the network.  Alone, that stops
 * all flit movement and trips the no-progress window; beside unrelated
 * traffic that keeps flits moving, only the packet-age scan can see
 * it.  Without a handler the watchdog fails fast and leaves a
 * "tenoc-watchdog-v1" snapshot file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "noc/mesh_network.hh"
#include "telemetry/json.hh"

namespace tenoc
{
namespace
{

/** Accepts every packet. */
struct AcceptSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override { ++count; }
    unsigned count = 0;
};

/** Refuses every packet: ejection at its node blocks for good. */
struct RefuseSink : PacketSink
{
    bool tryReserve(const Packet &) override { return false; }
    void deliver(PacketPtr, Cycle) override {}
};

PacketPtr
makeRequest(const Network &net, NodeId src, NodeId dst)
{
    auto pkt = makePacket();
    pkt->src = src;
    pkt->dst = dst;
    pkt->op = MemOp::READ_REQUEST;
    pkt->protoClass = 0;
    pkt->sizeFlits = net.packetFlits(MemOp::READ_REQUEST);
    pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
    return pkt;
}

MeshNetworkParams
watchedParams()
{
    MeshNetworkParams p;
    p.validate = true; // blocked ejection must break no invariant
    p.validateInterval = 16;
    p.watchdogWindow = 1500;
    return p;
}

/** Network whose node `blocked` refuses delivery; every other node
 *  accepts. */
struct BlockedNet
{
    BlockedNet(const MeshNetworkParams &params, NodeId blocked)
        : net(params)
    {
        for (NodeId n = 0; n < net.topology().numNodes(); ++n)
            net.setSink(n, &accept);
        net.setSink(blocked, &refuse);
    }

    /** Routes watchdog firings into `reports` instead of exiting. */
    void
    observe()
    {
        net.setWatchdogHandler(
            [this](const WatchdogReport &r) { reports.push_back(r); });
    }

    MeshNetwork net;
    AcceptSink accept;
    RefuseSink refuse;
    std::vector<WatchdogReport> reports;
};

TEST(Watchdog, RefusingSinkTripsNoProgress)
{
    const MeshNetworkParams p = watchedParams();
    const Topology topo(p.topo);
    const NodeId src = topo.nodeAt(0, 2);
    const NodeId dst = topo.nodeAt(5, 2);
    BlockedNet b(p, dst);
    b.observe();

    b.net.inject(makeRequest(b.net, src, dst), 0);
    Cycle t = 0;
    while (b.reports.empty() && t < 10000)
        b.net.cycle(t++);

    ASSERT_FALSE(b.reports.empty()) << "watchdog never fired";
    const WatchdogReport &r = b.reports.front();
    EXPECT_EQ(r.reason, "no_progress");
    EXPECT_EQ(r.inflight, 1u);
    EXPECT_GE(r.oldestAge, p.watchdogWindow);
    EXPECT_NE(r.snapshotJson.find("tenoc-watchdog-v1"),
              std::string::npos);
}

TEST(Watchdog, RefusingSinkTripsPacketAgeWhileTrafficFlows)
{
    // Unrelated traffic keeps flits moving, so the no-progress window
    // (still armed) never fires; only the age scan sees the one packet
    // stuck at the refusing destination.
    MeshNetworkParams p = watchedParams();
    p.maxPacketAge = 3000;
    const Topology topo(p.topo);
    const NodeId src = topo.nodeAt(0, 2);
    const NodeId dst = topo.nodeAt(5, 2);
    BlockedNet b(p, dst);
    b.observe();

    b.net.inject(makeRequest(b.net, src, dst), 0);
    const NodeId core = topo.nodeAt(3, 3);
    const NodeId other = topo.nodeAt(5, 4);
    Rng rng(11);
    Cycle t = 0;
    while (b.reports.empty() && t < 20000) {
        if (rng.nextBool(0.05) && b.net.canInject(core, 0))
            b.net.inject(makeRequest(b.net, core, other), t);
        b.net.cycle(t++);
    }

    ASSERT_FALSE(b.reports.empty()) << "age scan never fired";
    const WatchdogReport &r = b.reports.front();
    EXPECT_EQ(r.reason, "packet_age");
    EXPECT_GE(r.oldestAge, p.maxPacketAge);
    EXPECT_GT(b.accept.count, 0u);
}

TEST(WatchdogDeathTest, FailFastWritesSnapshotFile)
{
    MeshNetworkParams p = watchedParams();
    p.watchdogSnapshotPath =
        ::testing::TempDir() + "tenoc_watchdog_failfast.json";
    std::remove(p.watchdogSnapshotPath.c_str());
    const Topology topo(p.topo);
    const NodeId dst = topo.nodeAt(5, 2);

    EXPECT_DEATH(
        {
            BlockedNet b(p, dst); // no handler: the default fails fast
            b.net.inject(makeRequest(b.net, topo.nodeAt(0, 2), dst), 0);
            for (Cycle t = 0; t < 10000; ++t)
                b.net.cycle(t);
        },
        "network watchdog");

    std::ifstream in(p.watchdogSnapshotPath);
    ASSERT_TRUE(in) << "no snapshot at " << p.watchdogSnapshotPath;
    std::stringstream text;
    text << in.rdbuf();
    telemetry::JsonValue doc;
    std::string error;
    ASSERT_TRUE(telemetry::JsonValue::parse(text.str(), doc, &error))
        << error;
    const telemetry::JsonValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "tenoc-watchdog-v1");
    std::remove(p.watchdogSnapshotPath.c_str());
}

} // namespace
} // namespace tenoc
