/**
 * @file
 * Parametric synthetic kernel profiles.
 *
 * The paper evaluates 31 CUDA benchmarks (Table I) through GPGPU-Sim's
 * PTX frontend.  We model each benchmark as a statistical kernel
 * profile executed closed-loop by the SIMT core model: instruction
 * mix, coalescing behaviour, cache locality, DRAM row locality, and
 * occupancy.  See DESIGN.md "Substitutions" for the rationale.
 */

#ifndef TENOC_GPU_KERNEL_PROFILE_HH
#define TENOC_GPU_KERNEL_PROFILE_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"

namespace tenoc
{

/** Statistical description of one benchmark kernel. */
struct KernelProfile
{
    std::string name;    ///< full benchmark name (Table I)
    std::string abbr;    ///< abbreviation (AES, BFS, ...)
    TrafficClass expectedClass = TrafficClass::LL;

    /** Resident warps per core (occupancy; 32 = fully occupied). */
    unsigned warpsPerCore = 32;
    /** Warp instructions each warp executes before retiring. */
    std::uint64_t warpInstsPerWarp = 200;
    /**
     * Kernel launches per run.  Launch boundaries are global
     * barriers: every core retires its warps and the memory system
     * drains before the next launch starts, exposing tail latency the
     * way multi-kernel CUDA applications do.
     */
    unsigned numKernels = 1;

    /** Fraction of warp instructions that access global memory. */
    double memFraction = 0.10;
    /** Of memory instructions, fraction that are loads.  Loads and
     *  stores are timed alike (DESIGN.md substitution 2), so this
     *  only advances the decode RNG. */
    double loadFraction = 0.85;
    /** Mean distinct cache lines touched per warp memory instruction
     *  after coalescing (1 = perfectly coalesced, up to 32). */
    double avgLinesPerMemInst = 1.5;

    /** L1 data cache hit rate (profile locality mode). */
    double l1HitRate = 0.5;
    /** L2 bank hit rate for requests that miss L1. */
    double l2HitRate = 0.3;
    /** Probability a miss also evicts a dirty line (write traffic). */
    double writebackRate = 0.10;

    /** Memory-level parallelism per warp: a warp keeps issuing until
     *  this many cache lines are outstanding (independent loads before
     *  the first use; 1-2 for pointer-chasing code, large for unrolled
     *  streaming kernels). */
    unsigned maxPendingLines = 8;

    /** Probability the next line in a warp's address stream is
     *  sequential (drives DRAM row locality). */
    double rowLocality = 0.8;
    /** Random-jump footprint per warp, in bytes. */
    std::uint64_t footprintBytes = 4ull << 20;

    /** Total warp instructions across the whole chip. */
    std::uint64_t
    totalWarpInsts(unsigned num_cores) const
    {
        return static_cast<std::uint64_t>(num_cores) * warpsPerCore *
            warpInstsPerWarp;
    }
};

/**
 * Per-warp address stream.
 *
 * Models the access pattern of data-parallel CUDA kernels: the warps
 * of a core march through a shared per-core array with warp w touching
 * lines w, w + W, w + 2W, ... (W = warps per core), so neighbouring
 * warps touch neighbouring lines and, advancing in lock step, they
 * cover DRAM rows densely — the cross-warp spatial locality real
 * coalesced kernels exhibit.  With probability (1 - rowLocality) a
 * step is replaced by a random jump inside the footprint, which is
 * what destroys DRAM row locality for irregular benchmarks.
 */
class AddressStream
{
  public:
    /**
     * @param core_base start of the core's shared address region
     * @param warp_id this warp's index within the core
     * @param num_warps warps per core (the interleave stride)
     * @param profile kernel parameters (rowLocality, footprint)
     * @param line_bytes cache line size
     */
    AddressStream(Addr core_base, unsigned warp_id, unsigned num_warps,
                  const KernelProfile &profile, unsigned line_bytes);

    /** @return the next line address. */
    Addr next(Rng &rng);

  private:
    Addr base_;          ///< core_base + warp offset
    Addr stride_;        ///< num_warps * line_bytes
    std::uint64_t steps_; ///< footprint size in strides
    std::uint64_t step_ = 0;
    const KernelProfile *profile_;
};

} // namespace tenoc

#endif // TENOC_GPU_KERNEL_PROFILE_HH
