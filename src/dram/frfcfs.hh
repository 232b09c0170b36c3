/**
 * @file
 * FR-FCFS (first-ready, first-come-first-served) scheduling policy
 * (Table II: out-of-order memory controller).
 *
 * Row hits are serviced first (oldest hit wins); otherwise the oldest
 * request drives precharge/activate of its bank.
 */

#ifndef TENOC_DRAM_FRFCFS_HH
#define TENOC_DRAM_FRFCFS_HH

#include <cstdint>
#include <optional>

#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/gddr3.hh"

namespace tenoc
{

/** One request in the controller queue. */
struct DramRequest
{
    Addr localAddr = 0;      ///< channel-local address
    bool write = false;
    std::uint64_t tag = 0;   ///< opaque handle returned on completion
    Cycle arrival = 0;       ///< queue entry time (mem cycles)
    DramCoord coord;         ///< filled by the channel on push
    bool openedRow = false;  ///< an ACTIVATE was issued for this request
};

/** Scheduling-decision statistics (owned by the channel). */
struct FrFcfsStats
{
    /** Row-hit selections that bypassed an older queued request. */
    Counter rowHitPicks{"row_hit_picks"};
    /** Queue depth skipped to reach the chosen row hit. */
    Accumulator reorderDepth{"reorder_depth"};
    /** Cycles CAS issue was gated by a full read-out buffer. */
    Counter blockedByReturnBuffer{"blocked_by_return_buffer"};
};

/** FR-FCFS selection over a request queue. */
class FrFcfsScheduler
{
  public:
    /** The controller queue in arrival order; 32 entries (Table II)
     *  stay inline. */
    using Queue = RingQueue<DramRequest, 32>;

    /**
     * @return index into `queue` of the oldest row-hit request whose
     * bank can issue a CAS at `now`, if any.  Only requests at a bank
     * that is ready for a CAS are compared with its open row, and no
     * request is looked at when no bank is.  When `stats` is given,
     * records the pick and how far it reordered past the queue head.
     */
    static std::optional<std::size_t>
    pickRowHit(const Queue &queue, const class DramChannel &ch,
               Cycle now, FrFcfsStats *stats = nullptr);

    /**
     * @return index of the oldest request overall (FCFS order), used
     * to steer precharge/activate when no row hit is ready.
     */
    static std::optional<std::size_t> pickOldest(const Queue &queue);
};

} // namespace tenoc

#endif // TENOC_DRAM_FRFCFS_HH
