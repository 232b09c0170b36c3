/**
 * @file
 * Recorded-digest helpers for the regression tests: a small FNV-1a
 * feeder, one digest over a run's drain cycle and every sealed
 * NetStats field, the check against a table of recorded values, and
 * the seeded request/reply driver most recorded runs use.
 */

#ifndef TENOC_TESTS_NET_DIGEST_HH
#define TENOC_TESTS_NET_DIGEST_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "noc/network.hh"

namespace tenoc
{

/**
 * FNV-1a over a byte stream.  The offset is 1469598103934665603, not
 * the standard basis 14695981039346656037: every recorded test digest
 * was made with it.  Integers go in as little-endian u64s and doubles
 * as their bit patterns.
 */
class Fnv
{
  public:
    void
    bytes(std::string_view s)
    {
        for (const char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** A vector as its length followed by its elements. */
    void
    u64s(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        for (const std::uint64_t x : v)
            u64(x);
    }

    void
    stat(const Accumulator &a)
    {
        u64(a.count());
        f64(a.sum());
        f64(a.min());
        f64(a.max());
    }

    void
    stat(const Histogram &h)
    {
        u64s(h.buckets());
        u64(h.count());
        f64(h.sum());
    }

    /** Every sealed field, behind the tag `NSTA`. */
    void
    stats(const NetStats &s)
    {
        bytes("NSTA");
        u64(s.cycles);
        u64(s.packetsInjected);
        u64(s.packetsEjected);
        u64(s.flitsInjected);
        u64(s.flitsEjected);
        stat(s.totalLatency);
        stat(s.netLatency);
        stat(s.totalLatencyHist);
        stat(s.queueLatencyHist);
        stat(s.traversalLatencyHist);
        stat(s.serializationLatencyHist);
        u64s(s.nodeInjectedFlits);
        u64s(s.nodeEjectedFlits);
        u64s(s.nodeInjectedBytes);
        u64s(s.nodeEjectedBytes);
    }

    std::uint64_t value() const { return h_; }

    /** The digest as 16 lowercase hex digits. */
    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    void
    byte(std::uint8_t c)
    {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }

    std::uint64_t h_ = 1469598103934665603ull;
};

/**
 * FNV-1a digest of `stats` (counters, per-node vectors, latency
 * accumulators and histograms), prefixed by `drained_at`.  Compared
 * against a value recorded from an earlier simulator, a mismatch means
 * simulated timing changed.
 */
inline std::string
netStatsDigest(const NetStats &stats, Cycle drained_at)
{
    Fnv h;
    h.u64(drained_at);
    h.stats(stats);
    return h.hex();
}

/** Expects `digest` to equal the value `recorded` holds for `name`;
 *  a missing entry fails and prints the digest to record. */
inline void
expectRecordedDigest(const std::map<std::string, std::string> &recorded,
                     const std::string &name, const std::string &digest)
{
    const auto it = recorded.find(name);
    if (it == recorded.end()) {
        ADD_FAILURE() << "no recorded digest for " << name << " (got "
                      << digest << ")";
        return;
    }
    EXPECT_EQ(digest, it->second) << name;
}

/** Accepts everything, keeps nothing. */
struct DropSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

/**
 * Drives `net` for `cycles` cycles with seeded many-to-few requests
 * (class 0; each compute node offers one with probability
 * `request_rate` per cycle) and few-to-many replies (class 1; each MC
 * with probability `reply_rate`), every sink dropping what it
 * receives, then lets it drain.  Offers the NI refuses are lost, not
 * retried.  @return the cycle at which drained() first became true.
 */
inline Cycle
driveRequestsAndReplies(Network &net, std::uint64_t seed, Cycle cycles,
                        double request_rate, double reply_rate)
{
    DropSink sink;
    const auto &topo = net.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sink);
    Rng rng(seed);
    const auto send = [&](NodeId src, NodeId dst, MemOp op, int proto,
                          Cycle now) {
        auto pkt = makePacket();
        pkt->src = src;
        pkt->dst = dst;
        pkt->op = op;
        pkt->protoClass = proto;
        pkt->sizeFlits = net.packetFlits(op);
        pkt->sizeBytes = memOpBytes(op);
        net.inject(std::move(pkt), now);
    };
    Cycle now = 0;
    for (; now < cycles; ++now) {
        for (NodeId core : topo.computeNodes()) {
            if (rng.nextBool(request_rate) && net.canInject(core, 0))
                send(core, rng.pick(topo.mcNodes()),
                     MemOp::READ_REQUEST, 0, now);
        }
        for (NodeId mc : topo.mcNodes()) {
            if (rng.nextBool(reply_rate) && net.canInject(mc, 1))
                send(mc, rng.pick(topo.computeNodes()),
                     MemOp::READ_REPLY, 1, now);
        }
        net.cycle(now);
    }
    while (!net.drained() && now < cycles + 100000)
        net.cycle(now++);
    EXPECT_TRUE(net.drained());
    return now;
}

} // namespace tenoc

#endif // TENOC_TESTS_NET_DIGEST_HH
