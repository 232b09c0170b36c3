/**
 * @file
 * Recorded-digest helper for the network regression tests: one FNV-1a
 * value over a run's drain cycle and every sealed NetStats field, and
 * the check against a table of recorded values.
 */

#ifndef TENOC_TESTS_NET_DIGEST_HH
#define TENOC_TESTS_NET_DIGEST_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "common/snapshot.hh"
#include "noc/network.hh"

namespace tenoc
{

/**
 * FNV-1a digest of `stats` as NetStats::save serializes it (counters,
 * per-node vectors, latency accumulators and histograms), prefixed by
 * `drained_at`.  Compared against a value recorded from an earlier
 * simulator, a mismatch means simulated timing changed.
 */
inline std::string
netStatsDigest(const NetStats &stats, Cycle drained_at)
{
    SnapshotWriter w;
    w.u64(drained_at);
    stats.save(w);
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t c : w.data()) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
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
