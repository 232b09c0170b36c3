/**
 * @file
 * Instruction sources for the SIMT core.
 *
 * A core consumes decoded warp instructions from an InstSource.  Two
 * implementations ship with tenoc:
 *  - ProfileInstSource: draws instructions from a statistical
 *    KernelProfile (the Table I synthetic suite; DESIGN.md
 *    "Substitutions"),
 *  - TraceInstSource: replays a per-warp instruction trace, enabling
 *    fully structural simulation (real-tag caches) from user-provided
 *    traces.
 */

#ifndef TENOC_GPU_INST_SOURCE_HH
#define TENOC_GPU_INST_SOURCE_HH

#include <memory>
#include <string>
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
     * Prepares the source for the next kernel launch.  Statistical
     * sources keep streaming (fresh data per launch); trace sources
     * rewind and replay.
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

/**
 * Trace replay source.
 *
 * Trace format (text; '#' comments):
 *   <warp> A                  one ALU instruction
 *   <warp> L <addr> [...]     load touching the given line addresses
 *   <warp> S <addr> [...]     store touching the given line addresses
 * Addresses may be decimal or 0x-prefixed hex; they are line-aligned
 * by the core's L1.  Warps are dense indices starting at 0.
 */
class TraceInstSource : public InstSource
{
  public:
    /** Parses a trace from text; fatal() on malformed input. */
    static std::unique_ptr<TraceInstSource>
    fromText(const std::string &text);

    /** Loads a trace file; fatal() if unreadable. */
    static std::unique_ptr<TraceInstSource>
    fromFile(const std::string &path);

    unsigned numWarps() const override;
    std::uint64_t warpLength(unsigned warp) const override;
    void decode(unsigned warp, Warp::PendingInst &out,
                Rng &rng) override;
    void rewind() override;

  private:
    std::vector<std::vector<Warp::PendingInst>> per_warp_;
    std::vector<std::size_t> cursor_;
};

} // namespace tenoc

#endif // TENOC_GPU_INST_SOURCE_HH
