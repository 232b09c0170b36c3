/**
 * @file
 * Set-associative cache model (L1 data caches per core, shared L2
 * banks at the MC nodes; Table II).
 *
 * Two operating modes:
 *  - REAL: tag array with LRU replacement, writeback / write-allocate
 *    (the paper's L1 policy, Sec. II).
 *  - PROFILE: hit/miss outcomes drawn from a calibrated hit rate while
 *    the structural path (MSHRs, request/reply packets, DRAM row
 *    stream) is still fully simulated.  Used by the synthetic workload
 *    suite; see DESIGN.md "Substitutions".
 */

#ifndef TENOC_CACHE_CACHE_HH
#define TENOC_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace tenoc
{

/** Cache geometry and mode. */
struct CacheParams
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned lineBytes = 64;
    unsigned ways = 4;

    enum class Mode { REAL, PROFILE } mode = Mode::REAL;
    /** PROFILE mode: probability an access hits. */
    double profileHitRate = 0.0;
    /** PROFILE mode: probability a miss evicts a dirty line. */
    double profileWritebackRate = 0.0;
};

/** Outcome of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Dirty eviction to perform (REAL: on fill; PROFILE: on miss). */
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

    /**
     * Performs a load/store lookup.  REAL mode: on hit, updates LRU
     * (and dirty bit for stores).  On miss the line is NOT filled;
     * call fill() when the refill returns.
     */
    CacheAccessResult access(Addr addr, bool write);

    /**
     * Installs a line after a refill (REAL mode); returns a dirty
     * victim address if one was evicted.  PROFILE mode: no-op.
     */
    std::optional<Addr> fill(Addr addr, bool dirty);

    /** @return true if the line is present (REAL mode only). */
    bool probe(Addr addr) const;

    /** Invalidates everything (e.g. between kernels). */
    void flush();

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
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    unsigned setOf(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheParams params_;
    unsigned num_sets_;
    std::vector<Line> lines_; ///< num_sets_ * ways, row-major
    std::uint64_t stamp_ = 0;
    Rng rng_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace tenoc

#endif // TENOC_CACHE_CACHE_HH
