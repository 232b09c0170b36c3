/**
 * @file
 * Cache implementation.
 */

#include "cache/cache.hh"

#include "common/log.hh"

namespace tenoc
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheParams &params, std::uint64_t seed)
    : params_(params), rng_(seed)
{
    tenoc_assert(isPow2(params_.lineBytes), "line size must be pow2");
    tenoc_assert(params_.ways >= 1, "need at least one way");
    const std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    tenoc_assert(lines % params_.ways == 0,
                 "size/line/ways geometry mismatch");
    num_sets_ = static_cast<unsigned>(lines / params_.ways);
    tenoc_assert(isPow2(num_sets_), "set count must be pow2");
    tenoc_assert(params_.profileHitRate >= 0.0 &&
                 params_.profileHitRate <= 1.0,
                 "profile hit rate out of range");
}

CacheAccessResult
Cache::access(Addr addr)
{
    CacheAccessResult res;
    res.hit = rng_.nextBool(params_.profileHitRate);
    if (res.hit) {
        ++hits_;
    } else {
        ++misses_;
        if (rng_.nextBool(params_.profileWritebackRate)) {
            // Synthesize a victim in the same set region so the
            // writeback address stream stays plausible.
            res.writeback = lineAddr(addr) ^
                (static_cast<Addr>(num_sets_) * params_.lineBytes);
        }
    }
    return res;
}

} // namespace tenoc
