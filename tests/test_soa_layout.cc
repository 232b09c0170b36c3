/**
 * @file
 * Record layout suite (noc/slab.hh and its consumers).
 *
 * The VcSlabs arena is pure storage: every router/VC state machine
 * reads and writes its records, so a layout bug shows up as a stats
 * divergence somewhere in the scheduler matrix.  Three
 * layers of coverage:
 *   1. arena mechanics — configure() growth and shrink-with-reuse,
 *      release of stale tails' packets, ring wraparound (with the
 *      head's enqueue cycle kept in the record), and the out-of-range
 *      index assertions armed by TENOC_VALIDATE=1;
 *   2. port independence — the records of two ports at different
 *      bases of one arena must not alias;
 *   3. sealed stats — the identical seeded workload run with and
 *      without invariant validation, crossed with the semantic axis
 *      (single vs sliced double network); both runs
 *      must reproduce the digest recorded when the full-tick reference
 *      scheduler still existed and agreed with it.
 */

#include <gtest/gtest.h>

#include <string>

#include "net_digest.hh"
#include "noc/mesh_network.hh"
#include "noc/slab.hh"
#include "ring_flit.hh"

namespace tenoc
{
namespace
{

// --------------------------------------------------------------------
// 1. Arena mechanics
// --------------------------------------------------------------------

TEST(VcSlabs, ConfigureSizesAllArrays)
{
    VcSlabs slabs;
    slabs.configure(6, 10, 4);
    EXPECT_EQ(slabs.numInputVcs(), 6u);
    EXPECT_EQ(slabs.numOutputVcs(), 10u);
    EXPECT_EQ(slabs.depth(), 4u);
    EXPECT_EQ(slabs.flits.size(), 24u);
    EXPECT_EQ(slabs.in.size(), 6u);
    EXPECT_EQ(slabs.out.size(), 10u);
    for (std::size_t i = 0; i < slabs.numInputVcs(); ++i) {
        EXPECT_EQ(slabs.in[i].state, VcState::IDLE);
        EXPECT_EQ(slabs.in[i].ringCount, 0u);
        EXPECT_EQ(slabs.in[i].baseVc, 0u);
    }
    for (std::size_t o = 0; o < slabs.numOutputVcs(); ++o) {
        EXPECT_EQ(slabs.out[o].credits, 0u);
        EXPECT_EQ(slabs.out[o].owned, 0u);
    }
}

TEST(VcSlabs, RingWrapsAroundThroughSteadyState)
{
    VcSlabs slabs;
    slabs.configure(2, 0, 3);
    // Push/pop more flits than the depth so head wraps repeatedly.
    std::uint32_t next_seq = 1;
    for (unsigned round = 0; round < 7; ++round) {
        auto f = ringFlit(1);
        f.seq = next_seq++;
        slabs.pushFlit(1, f, round);
        if (round >= 1) {
            const Flit popped = slabs.popFlit(1);
            EXPECT_EQ(popped.seq, next_seq - 2);
            PacketDeleter{}(popped.pkt); // the popper's
        }
    }
    EXPECT_EQ(slabs.in[1].ringCount, 1u);
    EXPECT_EQ(slabs.frontFlit(1).seq, next_seq - 1);
    // Ring 0 was never touched.
    EXPECT_EQ(slabs.in[0].ringCount, 0u);
}

TEST(VcSlabs, HeadAtFollowsHeadThroughRingWrap)
{
    VcSlabs slabs;
    slabs.configure(1, 0, 3);
    // Keep two or three flits buffered while the head index wraps
    // several times; headAt must always be the front flit's enqueue
    // cycle, which here is its seq.
    std::uint32_t pushed = 0;
    auto push = [&] {
        auto f = ringFlit(0);
        f.seq = ++pushed;
        slabs.pushFlit(0, f, pushed);
    };
    push();
    push();
    for (unsigned round = 0; round < 10; ++round) {
        if (round % 2 == 0)
            push();
        const Flit popped = slabs.popFlit(0);
        PacketDeleter{}(popped.pkt); // the popper's
        ASSERT_NE(slabs.in[0].ringCount, 0u);
        EXPECT_EQ(slabs.in[0].headAt, slabs.frontFlit(0).enqueueCycle);
        EXPECT_EQ(slabs.in[0].headAt, popped.seq + 1u);
        if (slabs.in[0].ringCount == 1)
            push();
    }
    EXPECT_GT(pushed, 3u * slabs.depth()); // the head wrapped
}

TEST(VcSlabs, ReconfigureGrowsAndShrinksWithStateReset)
{
    VcSlabs slabs;
    slabs.configure(4, 4, 2);
    slabs.in[3].state = VcState::ACTIVE;
    slabs.out[2].owned = 1;
    slabs.out[1].credits = 7;
    slabs.pushFlit(0, ringFlit(0), 0);

    // Grow: more VCs, deeper rings.
    slabs.configure(16, 8, 5);
    EXPECT_EQ(slabs.numInputVcs(), 16u);
    EXPECT_EQ(slabs.depth(), 5u);
    EXPECT_EQ(slabs.flits.size(), 80u);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(slabs.in[i].state, VcState::IDLE);
        EXPECT_EQ(slabs.in[i].ringCount, 0u);
    }
    for (std::size_t o = 0; o < 8; ++o) {
        EXPECT_EQ(slabs.out[o].owned, 0u);
        EXPECT_EQ(slabs.out[o].credits, 0u);
    }

    // Shrink back below the original size: capacity is reused, state
    // still fully reset.
    slabs.configure(2, 2, 1);
    EXPECT_EQ(slabs.numInputVcs(), 2u);
    EXPECT_EQ(slabs.flits.size(), 2u);
    EXPECT_EQ(slabs.in[0].state, VcState::IDLE);
    EXPECT_EQ(slabs.in[1].ringCount, 0u);
}

TEST(VcSlabs, ReconfigureReleasesStalePacketReferences)
{
    const std::size_t live = livePackets();
    VcSlabs slabs;
    slabs.configure(1, 0, 2);
    auto pkt = makePacket();
    pkt->sizeFlits = 1;
    Flit f;
    f.pkt = pkt.release(); // the buffered tail owns the packet
    f.head = f.tail = true;
    slabs.pushFlit(0, f, 0);
    ASSERT_EQ(livePackets(), live + 1);
    // A reused arena must not pin packets from the previous
    // configuration alive.
    slabs.configure(1, 0, 2);
    EXPECT_EQ(livePackets(), live);
}

TEST(VcSlabsDeathTest, ValidateArmsOutOfRangeChecks)
{
    VcSlabs slabs;
    slabs.configure(2, 2, 2);
    slabs.setValidate(true);
    EXPECT_DEATH(slabs.pushFlit(5, ringFlit(0), 0), "out of range");
    EXPECT_DEATH(slabs.popFlit(9), "out of range");
}

TEST(VcSlabsDeathTest, OverflowPanicsEvenWithoutValidate)
{
    VcSlabs slabs;
    slabs.configure(1, 0, 1);
    slabs.pushFlit(0, ringFlit(0), 0);
    // The credit protocol assert stays on in every build: overflow is
    // memory corruption in ring storage.
    EXPECT_DEATH(slabs.pushFlit(0, ringFlit(0), 1), "overflow");
}

// --------------------------------------------------------------------
// 2. Port independence
// --------------------------------------------------------------------

TEST(VcSlabs, PortViewsAtDifferentBasesDoNotAlias)
{
    VcSlabs slabs;
    slabs.configure(6, 0, 3);
    // Port a holds VCs [0, 2), port b VCs [2, 6); VC 1 of each is at
    // global index 1 and 3.
    const std::size_t a1 = 0 + 1, b1 = 2 + 1;
    auto occupancy = [&](std::size_t first, std::size_t end) {
        unsigned n = 0;
        for (std::size_t i = first; i < end; ++i)
            n += slabs.in[i].ringCount;
        return n;
    };

    auto fa = ringFlit(1);
    fa.seq = 11;
    slabs.pushFlit(a1, fa, 5);
    auto fb = ringFlit(1);
    fb.seq = 22;
    slabs.pushFlit(b1, fb, 6);
    slabs.in[a1].state = VcState::ACTIVE;
    slabs.in[b1].state = VcState::VC_ALLOC;
    slabs.in[b1].baseVc = 3;

    EXPECT_EQ(slabs.frontFlit(a1).seq, 11u);
    EXPECT_EQ(slabs.frontFlit(b1).seq, 22u);
    EXPECT_EQ(slabs.in[a1].headAt, 5u);
    EXPECT_EQ(slabs.in[b1].headAt, 6u);
    EXPECT_EQ(slabs.in[a1].state, VcState::ACTIVE);
    EXPECT_EQ(slabs.in[b1].state, VcState::VC_ALLOC);
    EXPECT_EQ(slabs.in[b1].baseVc, 3u);
    EXPECT_EQ(slabs.in[a1].baseVc, 0u);
    EXPECT_EQ(occupancy(0, 2), 1u);
    EXPECT_EQ(occupancy(2, 6), 1u);
    EXPECT_EQ(slabs.in[1].ringCount, 1u);
    EXPECT_EQ(slabs.in[3].ringCount, 1u);
    EXPECT_EQ(slabs.in[0].ringCount, 0u);
}

// --------------------------------------------------------------------
// 3. Sealed-stats equality across the toggle cube
// --------------------------------------------------------------------

/** The semantic axis, slicing: it changes behavior, so each value is
 *  its own equality base. */
std::string
soaBaseName(const ::testing::TestParamInfo<bool> &info)
{
    return info.param ? "double" : "single";
}

MeshNetworkParams
soaParams(bool validate)
{
    MeshNetworkParams p;
    p.seed = 11;
    if (validate) {
        p.validate = true;
        p.validateInterval = 16;
    }
    return p;
}

/** netStatsDigest of each semantic base, recorded while the full-tick
 *  scheduler existed and agreed with idle skip on it. */
const std::map<std::string, std::string> RECORDED = {
    {"single", "9c25ad02c9127c73"},
    {"double", "330d408508964a56"},
};

class SoaToggleMatrix : public ::testing::TestWithParam<bool>
{};

TEST_P(SoaToggleMatrix, SealedStatsIdenticalAcrossToggles)
{
    const bool sliced = GetParam();
    for (const bool validate : {false, true}) {
        SCOPED_TRACE("validate=" + std::to_string(validate));
        const auto net = makeMeshNetwork(soaParams(validate), sliced);
        const Cycle done =
            driveRequestsAndReplies(*net, 97, 1200, 0.04, 0.10);
        expectRecordedDigest(RECORDED, soaBaseName({sliced, 0}),
                             netStatsDigest(net->stats(), done));
    }
}

INSTANTIATE_TEST_SUITE_P(SemanticAxes, SoaToggleMatrix, ::testing::Bool(),
                         soaBaseName);

} // namespace
} // namespace tenoc
