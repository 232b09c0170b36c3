/**
 * @file
 * Instruction sources for the SIMT core.
 *
 * A core consumes decoded warp instructions from an InstSource.  The
 * simulator's one implementation, ProfileInstSource, draws them from a
 * statistical KernelProfile (the Table I synthetic suite; DESIGN.md
 * "Substitutions"); the interface lets a test script exact
 * instructions instead.
 */

#ifndef TENOC_GPU_INST_SOURCE_HH
#define TENOC_GPU_INST_SOURCE_HH

#include <vector>

#include "common/rng.hh"
#include "gpu/coalescer.hh"
#include "gpu/kernel_profile.hh"
#include "gpu/warp.hh"

namespace tenoc
{

/** Produces decoded warp instructions. */
class InstSource
{
  public:
    virtual ~InstSource() = default;

    /** Number of resident warps this kernel wants (pre-clamp). */
    virtual unsigned numWarps() const = 0;

    /** Instructions warp `warp` executes before retiring. */
    virtual std::uint64_t warpLength(unsigned warp) const = 0;

    /**
     * Decodes warp `warp`'s next instruction into `out` (valid is set
     * by the caller).  Called exactly warpLength(warp) times per warp,
     * in program order per warp.
     */
    virtual void decode(unsigned warp, Warp::PendingInst &out,
                        Rng &rng) = 0;

    /**
     * Prepares the source for the next kernel launch.  The statistical
     * source keeps streaming (fresh data per launch); a scripted one
     * may replay from the start.
     */
    virtual void rewind() {}
};

/** Statistical source driven by a KernelProfile. */
class ProfileInstSource : public InstSource
{
  public:
    /**
     * @param profile kernel description (kept by reference)
     * @param core_id core index (address-space base derives from it)
     * @param num_warps resident warps after clamping
     * @param line_bytes cache line size
     * @param warp_size threads per warp (clamps coalescing)
     */
    ProfileInstSource(const KernelProfile &profile, unsigned core_id,
                      unsigned num_warps, unsigned line_bytes,
                      unsigned warp_size);

    unsigned numWarps() const override;
    std::uint64_t warpLength(unsigned warp) const override;
    void decode(unsigned warp, Warp::PendingInst &out,
                Rng &rng) override;

  private:
    const KernelProfile &profile_;
    Coalescer coalescer_;
    std::vector<AddressStream> streams_;
};

} // namespace tenoc

#endif // TENOC_GPU_INST_SOURCE_HH
