/**
 * @file
 * InstSource implementations.
 */

#include "gpu/inst_source.hh"

namespace tenoc
{

ProfileInstSource::ProfileInstSource(const KernelProfile &profile,
                                     unsigned core_id,
                                     unsigned num_warps,
                                     unsigned line_bytes,
                                     unsigned warp_size)
    : profile_(profile), coalescer_(warp_size)
{
    streams_.reserve(num_warps);
    for (unsigned w = 0; w < num_warps; ++w) {
        // Warps interleave through a shared per-core region (adjacent
        // warps touch adjacent lines, as in coalesced CUDA kernels).
        const Addr core_base = static_cast<Addr>(core_id) << 34;
        streams_.emplace_back(core_base, w, num_warps, profile_,
                              line_bytes);
    }
}

unsigned
ProfileInstSource::numWarps() const
{
    return static_cast<unsigned>(streams_.size());
}

std::uint64_t
ProfileInstSource::warpLength(unsigned warp) const
{
    (void)warp;
    return profile_.warpInstsPerWarp;
}

void
ProfileInstSource::decode(unsigned warp, Warp::PendingInst &out,
                          Rng &rng)
{
    out.isMem = rng.nextBool(profile_.memFraction);
    if (out.isMem) {
        // Loads and stores are timed alike (a store is a write-allocate
        // read), so the load/store draw's result is unused; the draw
        // stays because it advances the core's RNG.
        (void)rng.nextBool(profile_.loadFraction);
        out.lines =
            coalescer_.coalesce(profile_, streams_[warp], rng);
    } else {
        out.lines.clear();
    }
}

} // namespace tenoc
