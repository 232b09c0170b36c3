/**
 * @file
 * Hardening-layer tests: the invariant checker stays clean on correct
 * executions, and mutation tests prove that each deliberately injected
 * inconsistency (leaked credit, credit lost on the link wheel, wheel
 * entry left past its due cycle, corrupted in-flight counter, router
 * retired from the active set while it still has work, a stale cached
 * field — ring head cycle, VA output mask, NI queued base VC —) is
 * detected and reported precisely.  Also covers the config-hardening
 * fatal paths (0 VCs, off-mesh MCs, odd sliced flit width, ...) as
 * exit-code tests.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <string>

#include "common/log.hh"
#include "noc/invariants.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{
namespace
{

/** Accepts everything, keeps nothing. */
struct DropSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

void
attachDropSinks(Network &net, DropSink &sink)
{
    for (NodeId n = 0; n < net.topology().numNodes(); ++n)
        net.setSink(n, &sink);
}

/** Injects seeded request/reply traffic for `cycles` cycles. */
void
driveTraffic(Network &net, Rng &rng, Cycle &now, Cycle cycles)
{
    const auto &topo = net.topology();
    const Cycle end = now + cycles;
    for (; now < end; ++now) {
        for (NodeId core : topo.computeNodes()) {
            if (rng.nextBool(0.05) && net.canInject(core, 0)) {
                auto pkt = makePacket();
                pkt->src = core;
                pkt->dst = rng.pick(topo.mcNodes());
                pkt->op = MemOp::READ_REQUEST;
                pkt->protoClass = 0;
                pkt->sizeFlits = net.packetFlits(MemOp::READ_REQUEST);
                pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
                net.inject(std::move(pkt), now);
            }
        }
        for (NodeId mc : topo.mcNodes()) {
            if (rng.nextBool(0.10) && net.canInject(mc, 1)) {
                auto pkt = makePacket();
                pkt->src = mc;
                pkt->dst = rng.pick(topo.computeNodes());
                pkt->op = MemOp::READ_REPLY;
                pkt->protoClass = 1;
                pkt->sizeFlits = net.packetFlits(MemOp::READ_REPLY);
                pkt->sizeBytes = memOpBytes(MemOp::READ_REPLY);
                net.inject(std::move(pkt), now);
            }
        }
        net.cycle(now);
    }
}

bool
hasViolation(const std::vector<Violation> &vs, Violation::Kind kind)
{
    for (const auto &v : vs)
        if (v.kind == kind)
            return true;
    return false;
}

std::string
describe(const std::vector<Violation> &vs)
{
    std::string out;
    for (const auto &v : vs) {
        out += "[";
        out += violationKindName(v.kind);
        out += "] " + v.message + "\n";
    }
    return out;
}

TEST(Invariants, CleanAuditUnderTraffic)
{
    MeshNetworkParams p;
    p.validate = true; // periodic check() live too
    p.validateInterval = 8;
    MeshNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);
    Rng rng(99);
    Cycle now = 0;
    for (int burst = 0; burst < 8; ++burst) {
        driveTraffic(net, rng, now, 250);
        const auto vs = net.checker().audit();
        EXPECT_TRUE(vs.empty()) << describe(vs);
    }
    while (!net.drained() && now < 100000)
        net.cycle(now++);
    ASSERT_TRUE(net.drained());
    const auto vs = net.checker().audit();
    EXPECT_TRUE(vs.empty()) << describe(vs);
}

TEST(Invariants, CleanAuditDoubleNetwork)
{
    MeshNetworkParams p;
    p.validate = true;
    p.validateInterval = 8;
    DoubleNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);
    Rng rng(7);
    Cycle now = 0;
    driveTraffic(net, rng, now, 1500);
    while (!net.drained() && now < 100000)
        net.cycle(now++);
    ASSERT_TRUE(net.drained());
    for (MeshNetwork *slice : {&net.requestNet(), &net.replyNet()}) {
        const auto vs = slice->checker().audit();
        EXPECT_TRUE(vs.empty()) << describe(vs);
    }
}

TEST(Invariants, MutatedCreditIsCaught)
{
    MeshNetworkParams p; // validate off: audit by hand, no panic
    MeshNetwork net(p);
    ASSERT_TRUE(net.checker().audit().empty());

    // Leak one downstream credit on the first connected output.
    Router &r = net.router(net.topology().nodeAt(1, 1));
    unsigned out = NUM_DIRS;
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (r.outputConnected(d)) {
            out = d;
            break;
        }
    }
    ASSERT_LT(out, NUM_DIRS);
    ASSERT_TRUE(r.dropCredit(out, 0));

    const auto vs = net.checker().audit();
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::CREDIT_CONSERVATION))
        << describe(vs);
    // The report pinpoints the mutated link, direction and VC.
    bool precise = false;
    for (const auto &v : vs) {
        if (v.kind == Violation::Kind::CREDIT_CONSERVATION &&
            v.message.find("vc 0") != std::string::npos) {
            precise = true;
        }
    }
    EXPECT_TRUE(precise) << describe(vs);
}

TEST(Invariants, CreditLostOnTheWheelIsCaught)
{
    MeshNetworkParams p; // validate off: audit by hand, no panic
    MeshNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);
    Rng rng(3);
    Cycle now = 0;
    // Run until a credit is on its way back up some link.
    bool credit_on_wheel = false;
    while (!credit_on_wheel && now < 2000) {
        driveTraffic(net, rng, now, 1);
        net.links().forEachCredit(
            [&](std::size_t) { credit_on_wheel = true; });
    }
    ASSERT_TRUE(credit_on_wheel);
    ASSERT_TRUE(net.checker().audit().empty());

    ASSERT_TRUE(net.links().dropCredit());
    const auto vs = net.checker().audit();
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::CREDIT_CONSERVATION))
        << describe(vs);
}

TEST(Invariants, OverdueWheelEntryIsCaught)
{
    // A stage that skipped an entry would strand its flit while the
    // receiver sleeps: the activity audit flags any entry posted before
    // the stage's last fire.
    MeshNetworkParams p;
    MeshNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);
    Rng rng(3);
    Cycle now = 0;
    std::size_t on_wheel = 0;
    while (on_wheel == 0 && now < 2000) {
        driveTraffic(net, rng, now, 1);
        on_wheel = net.links().scheduled();
    }
    ASSERT_GT(on_wheel, 0u);
    ASSERT_TRUE(net.checker().audit().empty());
    // Post one more credit before the last fire, as a fire that left
    // it behind would.
    net.links().sendCredit(0, 0, now - 2);
    const auto vs = net.checker().audit();
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::ACTIVITY))
        << describe(vs);
}

TEST(Invariants, CorruptedInflightCounterIsCaught)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    net.debugAdjustInflight(+1);
    const auto vs = net.checker().audit();
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::PACKET_CONSERVATION))
        << describe(vs);
    net.debugAdjustInflight(-1);
    EXPECT_TRUE(net.checker().audit().empty());
}

TEST(Invariants, RetiredActiveRouterIsCaught)
{
    MeshNetworkParams p; // the activity audit always runs
    MeshNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);

    const auto &topo = net.topology();
    auto pkt = makePacket();
    pkt->src = topo.nodeAt(0, 2);
    pkt->dst = topo.nodeAt(5, 2);
    pkt->op = MemOp::READ_REQUEST;
    pkt->protoClass = 0;
    pkt->sizeFlits = net.packetFlits(MemOp::READ_REQUEST);
    pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
    net.inject(std::move(pkt), 0);

    // Tick until some router holds buffered flits, then retire it from
    // the active set as a buggy idle-skip scheduler would.
    NodeId busy = INVALID_NODE;
    Cycle now = 0;
    while (busy == INVALID_NODE && now < 100) {
        net.cycle(now++);
        for (NodeId n = 0; n < topo.numNodes() && busy == INVALID_NODE;
             ++n) {
            unsigned flits = 0;
            net.router(n).forEachBufferedFlit(
                [&](unsigned, unsigned, const Flit &) { ++flits; });
            if (flits > 0)
                busy = n;
        }
    }
    ASSERT_NE(busy, INVALID_NODE) << "packet never entered a router";

    ASSERT_TRUE(net.checker().audit().empty());
    net.debugRetireRouter(busy);
    const auto vs = net.checker().audit();
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::ACTIVITY))
        << describe(vs);
}

/** @return true if a violation of `kind` has a message holding `what`. */
bool
hasViolationSaying(const std::vector<Violation> &vs, Violation::Kind kind,
                   const std::string &what)
{
    for (const auto &v : vs)
        if (v.kind == kind && v.message.find(what) != std::string::npos)
            return true;
    return false;
}

TEST(Invariants, StaleRingHeadAtIsCaught)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);
    Rng rng(3);
    Cycle now = 0;
    // Run until some input VC buffers a flit; find its global record
    // index (routers take contiguous ranges in node order).
    const auto &topo = net.topology();
    std::size_t idx = 0;
    std::string where;
    while (where.empty() && now < 2000) {
        driveTraffic(net, rng, now, 1);
        std::size_t base = 0;
        for (NodeId n = 0; n < topo.numNodes() && where.empty(); ++n) {
            const Router &r = net.router(n);
            for (unsigned i = 0; i < r.numInputs() * r.numVcs(); ++i) {
                const unsigned in = i / r.numVcs(), vc = i % r.numVcs();
                if (r.vcOccupancy(in, vc) != 0) {
                    idx = base + i;
                    where = "router " + std::to_string(n) + " input " +
                        std::to_string(in) + " vc " + std::to_string(vc);
                    break;
                }
            }
            base += std::size_t{r.numInputs()} * r.numVcs();
        }
    }
    ASSERT_FALSE(where.empty());
    ASSERT_TRUE(net.checker().audit().empty());

    ++net.vcSlabs().in[idx].headAt;
    const auto vs = net.checker().audit();
    EXPECT_TRUE(hasViolationSaying(vs, Violation::Kind::CACHED_FIELD,
                                   where + ": headAt"))
        << where << "\n" << describe(vs);
}

TEST(Invariants, StaleVaOutputMaskIsCaught)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);
    Rng rng(3);
    Cycle now = 0;
    // Run until a head waits in VC allocation for a busy output VC.
    Router *r = nullptr;
    unsigned out = 0;
    while (!r && now < 5000) {
        driveTraffic(net, rng, now, 1);
        for (NodeId n = 0; n < net.topology().numNodes() && !r; ++n) {
            const auto &reqs = net.router(n).stageMasks().vaReqs;
            for (unsigned o = 0; o < reqs.size() && !r; ++o) {
                if (reqs[o] != 0) {
                    r = &net.router(n);
                    out = o;
                }
            }
        }
    }
    ASSERT_TRUE(r) << "no VC allocation request outlived its cycle";
    ASSERT_TRUE(net.checker().audit().empty());

    // Dropping the output from the mask would leave its requestors
    // unvisited forever.
    r->debugFlipVaOutput(out);
    const auto requestor = static_cast<unsigned>(
        std::countr_zero(r->stageMasks().vaReqs[out]));
    const std::string lacks = "router " + std::to_string(r->id()) +
        " VA output mask lacks output " + std::to_string(out) +
        " but input " + std::to_string(requestor / r->numVcs()) +
        " vc " + std::to_string(requestor % r->numVcs());
    auto vs = net.checker().audit();
    EXPECT_TRUE(hasViolationSaying(vs, Violation::Kind::STAGE_MASK, lacks))
        << lacks << "\n" << describe(vs);

    // And an output with no requestors must not be in it.
    r->debugFlipVaOutput(out);
    ASSERT_TRUE(net.checker().audit().empty());
    unsigned idle = 0;
    while (r->stageMasks().vaReqs[idle] != 0)
        ++idle;
    r->debugFlipVaOutput(idle);
    vs = net.checker().audit();
    EXPECT_TRUE(hasViolationSaying(
        vs, Violation::Kind::STAGE_MASK,
        "VA output mask holds output " + std::to_string(idle)))
        << describe(vs);
}

TEST(Invariants, StaleNiBaseVcIsCaught)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    const NodeId mc = net.topology().mcNodes().front();
    // Two replies wait in the MC's class-1 queue until the next cycle.
    for (int i = 0; i < 2; ++i) {
        auto pkt = makePacket();
        pkt->src = mc;
        pkt->dst = net.topology().computeNodes().front();
        pkt->op = MemOp::READ_REPLY;
        pkt->protoClass = 1;
        pkt->sizeFlits = net.packetFlits(MemOp::READ_REPLY);
        pkt->sizeBytes = memOpBytes(MemOp::READ_REPLY);
        net.inject(std::move(pkt), 0);
    }
    ASSERT_TRUE(net.checker().audit().empty());

    // Corrupt the second entry's stored base VC (reply class: VC 1).
    NiSlabs &s = net.niSlabs();
    const std::size_t q = std::size_t{mc} * s.classes() + 1;
    ASSERT_EQ(s.qSize(q), 2u);
    const std::size_t pos =
        q * s.injCap() + (s.injQHead[q] + 1) % s.injCap();
    ASSERT_EQ(s.injQBase[pos], 1u);
    s.injQBase[pos] = 0;
    const auto vs = net.checker().audit();
    EXPECT_TRUE(hasViolationSaying(
        vs, Violation::Kind::CACHED_FIELD,
        "NI " + std::to_string(mc) +
            " class 1 queue entry 1: cached base VC 0 but the packet's"
            " base VC is 1"))
        << describe(vs);
}

TEST(Invariants, ValidateForcedByEnvParsesValues)
{
    const char *saved = ::getenv("TENOC_VALIDATE");
    const std::string restore = saved ? saved : "";
    ::setenv("TENOC_VALIDATE", "1", 1);
    EXPECT_TRUE(validateForcedByEnv());
    ::setenv("TENOC_VALIDATE", "0", 1);
    EXPECT_FALSE(validateForcedByEnv());
    ::unsetenv("TENOC_VALIDATE");
    EXPECT_FALSE(validateForcedByEnv());
    if (saved)
        ::setenv("TENOC_VALIDATE", restore.c_str(), 1);
}

using InvariantsDeathTest = ::testing::Test;

TEST(InvariantsDeathTest, CheckPanicsListingViolations)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    Router &r = net.router(net.topology().nodeAt(1, 1));
    ASSERT_TRUE(r.dropCredit(DIR_EAST, 0));
    EXPECT_DEATH(net.checker().check(0), "credit_conservation");
}

TEST(InvariantsDeathTest, PeriodicCheckFiresUnderValidate)
{
    MeshNetworkParams p;
    p.validate = true;
    p.validateInterval = 1;
    MeshNetwork net(p);
    net.debugAdjustInflight(+1);
    EXPECT_DEATH(net.cycle(0), "packet_conservation");
}

using ConfigHardeningDeathTest = ::testing::Test;

TEST(ConfigHardeningDeathTest, ZeroVcsRejected)
{
    MeshNetworkParams p;
    p.vcsPerClass = 0;
    EXPECT_EXIT(validateMeshNetworkParams(p),
                ::testing::ExitedWithCode(1), "vcsPerClass");
}

TEST(ConfigHardeningDeathTest, ZeroVcDepthRejected)
{
    MeshNetworkParams p;
    p.vcDepth = 0;
    EXPECT_EXIT(validateMeshNetworkParams(p),
                ::testing::ExitedWithCode(1), "vcDepth");
}

TEST(ConfigHardeningDeathTest, ZeroValidateIntervalRejected)
{
    MeshNetworkParams p;
    p.validate = true;
    p.validateInterval = 0;
    EXPECT_EXIT(validateMeshNetworkParams(p),
                ::testing::ExitedWithCode(1), "validateInterval");
}

TEST(ConfigHardeningDeathTest, OffMeshMcRejected)
{
    TopologyParams tp;
    tp.placement = McPlacement::CUSTOM;
    tp.numMcs = 1;
    tp.customMcs = {{9, 9}}; // 6x6 mesh has x,y in [0,5]
    EXPECT_EXIT({ Topology topo(tp); }, ::testing::ExitedWithCode(1),
                "off the");
}

TEST(ConfigHardeningDeathTest, TooManyMcsRejected)
{
    TopologyParams tp;
    tp.numMcs = 36; // every node an MC leaves no compute nodes
    EXPECT_EXIT({ Topology topo(tp); }, ::testing::ExitedWithCode(1),
                "");
}

TEST(ConfigHardeningDeathTest, DegenerateMeshRejected)
{
    TopologyParams tp;
    tp.rows = 1;
    EXPECT_EXIT({ Topology topo(tp); }, ::testing::ExitedWithCode(1),
                "");
}

TEST(ConfigHardeningDeathTest, OddSlicedFlitBytesRejected)
{
    MeshNetworkParams p;
    p.flitBytes = 15; // cannot halve evenly
    EXPECT_EXIT(makeMeshNetwork(p, true),
                ::testing::ExitedWithCode(1), "even value");
}

} // namespace
} // namespace tenoc
