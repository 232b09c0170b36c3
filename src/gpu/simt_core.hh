/**
 * @file
 * SIMT compute core model (Fig. 4 of the paper).
 *
 * 8-wide SIMD pipeline executing 32-thread warps over four core
 * cycles; a dispatch queue of up to 32 ready warps; memory divergence
 * detection / coalescing; a profile-locality L1 data cache with a
 * 64-entry MSHR table.  Global loads and stores that miss L1 send read
 * requests into the NoC (stores write-allocate) and block their warp
 * until the read reply returns; dirty evictions send write requests
 * (the paper's core->MC traffic is read requests plus less-frequent
 * writes, and MC->core traffic is read replies only).
 */

#ifndef TENOC_GPU_SIMT_CORE_HH
#define TENOC_GPU_SIMT_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "gpu/inst_source.hh"
#include "gpu/kernel_profile.hh"
#include "gpu/warp.hh"

namespace tenoc
{

/**
 * The core's window into the memory system; implemented by the Chip,
 * which turns these into NoC packets with proper interconnect-domain
 * timestamps and MC routing by address interleaving.
 */
class CoreMemPort
{
  public:
    virtual ~CoreMemPort() = default;
    /** @return true if `n` more request packets can be queued now.
     *  Monotone in `n`: if `n` is refused, so is any larger count. */
    virtual bool canSendRequests(unsigned n) const = 0;
    /** Sends a read request for one line. */
    virtual void sendRead(Addr line) = 0;
    /** Sends a 64-byte write (dirty eviction). */
    virtual void sendWrite(Addr line) = 0;
};

/** SIMT core configuration (Table II). */
struct SimtCoreParams
{
    unsigned warpSize = 32;
    unsigned simdWidth = 8;
    unsigned maxWarps = 32;      ///< 1024 threads / 32
    unsigned mshrEntries = 64;
    unsigned lineBytes = 64;
    /** Core cycles per issue slot: warpSize / simdWidth. */
    unsigned
    issueInterval() const
    {
        return warpSize / simdWidth;
    }
};

class SimtCore
{
  public:
    /**
     * @param id core index (address-space base derives from it)
     * @param params core configuration
     * @param profile kernel profile (cache config, MLP; and the
     *        instruction statistics when no explicit source is given)
     * @param port memory system access
     * @param seed deterministic RNG seed
     * @param source optional instruction source (tests script one);
     *        defaults to a ProfileInstSource over `profile`
     */
    SimtCore(unsigned id, const SimtCoreParams &params,
             const KernelProfile &profile, CoreMemPort &port,
             std::uint64_t seed,
             std::unique_ptr<InstSource> source = nullptr);

    /** Advances one core clock. */
    void cycle(Cycle core_cycle);

    /**
     * Starts the next kernel launch: rewinds the instruction source
     * and re-arms every warp.  Caches stay warm (as on real GPUs);
     * all MSHRs must have drained (global launch barrier).
     */
    void restart();

    /** Read reply arrived for `line`; wakes merged waiter warps. */
    void onReadReply(Addr line);

    /** @return true when every warp has retired. */
    bool done() const { return warps_done_ == warps_.size(); }

    // --- stats ---
    std::uint64_t scalarInsts() const { return scalar_insts_; }
    std::uint64_t warpInstsIssued() const { return warp_insts_; }
    std::uint64_t stallSlots() const { return stall_slots_; }
    std::uint64_t memInsts() const { return mem_insts_; }
    std::uint64_t readsSent() const { return reads_sent_; }
    std::uint64_t writesSent() const { return writes_sent_; }
    Cycle finishCycle() const { return finish_cycle_; }
    const Cache &l1() const { return l1_; }
    const MshrTable &mshrs() const { return mshrs_; }

    /** Registers the core's statistics under `group`. */
    void registerStats(StatGroup &group) const;

  private:
    /** Outcome of one memory-instruction attempt. */
    enum class MemIssue : std::uint8_t
    {
        ISSUED,
        PORT_FULL, ///< the injection queue lacks room
        MSHR_FULL  ///< the MSHR table cannot take every line
    };

    /** Attempts to issue one warp instruction; @return success. */
    bool issueSlot(Cycle core_cycle);

    /**
     * Attempts to issue warp `w`'s next instruction; @return success.
     * A warp the MSHRs or the port refuse is parked.
     */
    bool tryIssue(unsigned w);

    /** Executes a memory instruction for `warp`; see tryIssue().  On
     *  MSHR_FULL the warp's need is left in mshr_park_. */
    MemIssue executeMemInst(Warp &warp);

    /**
     * @return the new MSHR entries `warp`'s held memory instruction
     * needs: its line occurrences that are not pending, or ~0u when a
     * pending line has fewer merges left than the instruction's
     * occurrences of it.  The MSHRs take the instruction exactly when
     * the need is at most the free entry count.
     */
    unsigned mshrNeed(const Warp &warp) const;

    /** Records parked warp `w`'s need; warns once per core when the
     *  need exceeds the whole table. */
    void setMshrNeed(unsigned w, unsigned need);

    /** An allocate, merge or release of `line`: marks stale the parked
     *  warps whose signature holds the line's bit. */
    void noteMshrLine(Addr line);

    /** Recounts the stale needs, then arms exactly the MSHR-parked
     *  warps whose need the free entries cover. */
    void judgeMshrParked();

    /** TENOC_VALIDATE audit after each judgeMshrParked(): every parked
     *  warp's need matches a recount, and its issue bit matches its
     *  need. */
    void auditMshrParking() const;

    /** @return the warps whose state lets them issue. */
    std::uint64_t issuableWarps() const;

    unsigned id_;
    SimtCoreParams params_;
    const KernelProfile &profile_;
    CoreMemPort &port_;
    Rng rng_;

    Cache l1_;
    MshrTable mshrs_;
    std::unique_ptr<InstSource> source_;

    std::vector<Warp> warps_;
    /** Bit w: warp w may issue and is not parked on the MSHRs or the
     *  port.  The scheduler tries exactly these warps. */
    std::uint64_t issuable_ = 0;
    /** A warp parked on the MSHRs: the need of its held instruction
     *  (see mshrNeed()) and a signature with one bit per line. */
    struct MshrPark
    {
        unsigned need = 0;
        std::uint64_t lines = 0;
    };
    std::vector<MshrPark> mshr_park_;
    /** Warps whose held memory instruction the MSHRs refused.  Each is
     *  in issuable_ exactly while the free entries cover its need, as
     *  judged at the last issue slot where the table had changed. */
    std::uint64_t mshr_parked_ = 0;
    /** Parked warps an event on one of their lines may have given a
     *  new need; judgeMshrParked() recounts them. */
    std::uint64_t mshr_stale_ = 0;
    /** The table generation of the last judgeMshrParked(). */
    std::uint64_t mshr_judged_gen_ = 0;
    /** TENOC_VALIDATE is set: audit the parking at every judgement. */
    const bool validate_;
    /** setMshrNeed() has warned of a need above the table size. */
    bool warned_mshr_need_ = false;
    /** Warps whose held memory instruction the port refused.  Each
     *  needs at least `port_need_` requests, the smallest count the
     *  port refused since they parked; they re-arm at the first issue
     *  slot where canSendRequests(port_need_) holds.  Until then every
     *  attempt in the slot may treat that count as refused. */
    std::uint64_t port_parked_ = 0;
    unsigned port_need_ = ~0u;
    unsigned rr_warp_ = 0;
    unsigned slot_countdown_ = 0;
    std::size_t warps_done_ = 0;

    std::uint64_t scalar_insts_ = 0;
    std::uint64_t warp_insts_ = 0;
    std::uint64_t stall_slots_ = 0;
    std::uint64_t mem_insts_ = 0;
    std::uint64_t reads_sent_ = 0;
    std::uint64_t writes_sent_ = 0;
    Cycle finish_cycle_ = 0;
};

} // namespace tenoc

#endif // TENOC_GPU_SIMT_CORE_HH
