/**
 * @file
 * Profile-locality cache model (L1 data caches per core, shared L2
 * banks at the MC nodes; Table II).
 *
 * Hit/miss outcomes are drawn from a calibrated hit rate while the
 * structural path (MSHRs, request/reply packets, DRAM row stream) is
 * still fully simulated; see DESIGN.md "Substitutions".  The geometry
 * only places the synthesized dirty victim of a miss.
 */

#ifndef TENOC_CACHE_CACHE_HH
#define TENOC_CACHE_CACHE_HH

#include <cstdint>
#include <optional>

#include "common/rng.hh"
#include "common/types.hh"

namespace tenoc
{

/** Cache geometry and locality. */
struct CacheParams
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned lineBytes = 64;
    unsigned ways = 4;

    /** Probability an access hits. */
    double profileHitRate = 0.0;
    /** Probability a miss evicts a dirty line. */
    double profileWritebackRate = 0.0;
};

/** Outcome of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Dirty eviction to perform (misses only). */
    std::optional<Addr> writeback;
};

class Cache
{
  public:
    explicit Cache(const CacheParams &params, std::uint64_t seed = 7);

    const CacheParams &params() const { return params_; }
    unsigned numSets() const { return num_sets_; }

    /** Aligns an address to its line. */
    Addr lineAddr(Addr a) const { return a & ~static_cast<Addr>(
        params_.lineBytes - 1); }

    /** Draws the outcome of one load or store of `addr`. */
    CacheAccessResult access(Addr addr);

    // --- stats ---
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double
    hitRate() const
    {
        const auto total = hits_ + misses_;
        return total ? static_cast<double>(hits_) / total : 0.0;
    }

  private:
    CacheParams params_;
    unsigned num_sets_;
    Rng rng_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace tenoc

#endif // TENOC_CACHE_CACHE_HH
