/**
 * @file
 * NoC library standalone example: build a checkerboard mesh directly,
 * inject individual packets, and trace their delivery — the lowest-
 * level public API (no cores, no DRAM).  Also demonstrates the
 * checkerboard routing modes (XY / YX / two-phase) on concrete pairs.
 */

#include <cstdio>

#include "noc/mesh_network.hh"

using namespace tenoc;

namespace
{

struct TraceSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }

    void
    deliver(PacketPtr pkt, Cycle now) override
    {
        std::printf("  packet #%llu delivered at cycle %llu "
                    "(latency %llu, %u flits)\n",
                    static_cast<unsigned long long>(pkt->id),
                    static_cast<unsigned long long>(now),
                    static_cast<unsigned long long>(
                        now - pkt->createdCycle),
                    pkt->sizeFlits);
    }
};

const char *
modeName(RouteMode m)
{
    switch (m) {
      case RouteMode::XY: return "XY";
      case RouteMode::YX: return "YX (header bit set)";
      case RouteMode::TWO_PHASE: return "two-phase (via waypoint)";
    }
    return "?";
}

} // namespace

int
main()
{
    MeshNetworkParams params;
    params.topo.placement = McPlacement::CHECKERBOARD;
    params.topo.checkerboardRouters = true;
    params.routing = "cr";
    MeshNetwork net(params);
    const Topology &topo = net.topology();

    std::printf("6x6 checkerboard mesh: %zu compute nodes, %zu MCs "
                "(all at half-routers)\n\n%s\n",
                topo.computeNodes().size(), topo.mcNodes().size(),
                renderTopology(topo).c_str());

    TraceSink sink;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sink);

    // Demonstrate the three checkerboard routing modes.
    const Routing cr_probe(topo, "cr");
    Rng rng(3);
    struct Pair { unsigned sx, sy, dx, dy; };
    const Pair pairs[] = {
        {0, 0, 2, 2}, // full -> full, even distance: XY works
        {0, 0, 3, 2}, // full -> half via YX turn
        {1, 0, 3, 2}, // half -> half, even columns: two-phase
    };
    Cycle now = 0;
    for (const auto &pr : pairs) {
        auto pkt = makePacket();
        pkt->src = topo.nodeAt(pr.sx, pr.sy);
        pkt->dst = topo.nodeAt(pr.dx, pr.dy);
        pkt->op = MemOp::READ_REPLY;
        pkt->protoClass = 1;
        pkt->sizeFlits = net.packetFlits(MemOp::READ_REPLY);
        pkt->sizeBytes = memOpBytes(MemOp::READ_REPLY);

        Packet probe = *pkt;
        cr_probe.initPacket(probe, rng);
        std::printf("\n(%u,%u) -> (%u,%u): mode %s", pr.sx, pr.sy,
                    pr.dx, pr.dy, modeName(probe.mode));
        if (probe.intermediate != INVALID_NODE) {
            std::printf(" via (%u,%u)", topo.xOf(probe.intermediate),
                        topo.yOf(probe.intermediate));
        }
        std::printf("\n");

        net.inject(std::move(pkt), now);
        for (int i = 0; i < 80; ++i)
            net.cycle(now++);
    }

    std::printf("\nnetwork stats: %llu packets, %llu flits, mean "
                "latency %.1f cycles\n",
                static_cast<unsigned long long>(
                    net.stats().packetsEjected),
                static_cast<unsigned long long>(
                    net.stats().flitsEjected),
                net.stats().totalLatency.mean());
    return 0;
}
