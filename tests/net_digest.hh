/**
 * @file
 * Recorded-digest helpers for the regression tests: a small FNV-1a
 * feeder, one digest over a run's drain cycle and every sealed
 * NetStats field, and the check against a table of recorded values.
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

} // namespace tenoc

#endif // TENOC_TESTS_NET_DIGEST_HH
