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
    lines_.assign(lines, Line{});
    if (params_.mode == CacheParams::Mode::PROFILE) {
        tenoc_assert(params_.profileHitRate >= 0.0 &&
                     params_.profileHitRate <= 1.0,
                     "profile hit rate out of range");
    }
}

unsigned
Cache::setOf(Addr addr) const
{
    return static_cast<unsigned>((addr / params_.lineBytes) &
                                 (num_sets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / params_.lineBytes / num_sets_;
}

CacheAccessResult
Cache::access(Addr addr, bool write)
{
    CacheAccessResult res;
    if (params_.mode == CacheParams::Mode::PROFILE) {
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

    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.ways];
    for (unsigned w = 0; w < params_.ways; ++w) {
        Line &ln = base[w];
        if (ln.valid && ln.tag == tag) {
            ln.lruStamp = ++stamp_;
            if (write)
                ln.dirty = true;
            ++hits_;
            res.hit = true;
            return res;
        }
    }
    ++misses_;
    return res;
}

std::optional<Addr>
Cache::fill(Addr addr, bool dirty)
{
    if (params_.mode == CacheParams::Mode::PROFILE)
        return std::nullopt;

    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.ways];

    // Already present (e.g. duplicate fill after MSHR merge): refresh.
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lruStamp = ++stamp_;
            base[w].dirty = base[w].dirty || dirty;
            return std::nullopt;
        }
    }

    // Choose victim: first invalid way, else LRU.
    unsigned victim = 0;
    bool found_invalid = false;
    std::uint64_t oldest = UINT64_MAX;
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (!base[w].valid) {
            victim = w;
            found_invalid = true;
            break;
        }
        if (base[w].lruStamp < oldest) {
            oldest = base[w].lruStamp;
            victim = w;
        }
    }

    std::optional<Addr> wb;
    if (!found_invalid && base[victim].dirty) {
        const Addr victim_line =
            (base[victim].tag * num_sets_ + set) * params_.lineBytes;
        wb = victim_line;
    }
    base[victim].valid = true;
    base[victim].dirty = dirty;
    base[victim].tag = tag;
    base[victim].lruStamp = ++stamp_;
    return wb;
}

bool
Cache::probe(Addr addr) const
{
    if (params_.mode == CacheParams::Mode::PROFILE)
        return false;
    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    const Line *base =
        &lines_[static_cast<std::size_t>(set) * params_.ways];
    for (unsigned w = 0; w < params_.ways; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
Cache::flush()
{
    for (auto &ln : lines_)
        ln = Line{};
}

} // namespace tenoc
