/**
 * @file
 * The DRAM controller's request record and its FR-FCFS (first-ready,
 * first-come-first-served) scheduling statistics (Table II:
 * out-of-order memory controller).
 *
 * Row hits are serviced first (oldest hit wins); otherwise the oldest
 * request drives precharge/activate of its bank.  DramChannel::cycle
 * makes the picks.
 */

#ifndef TENOC_DRAM_FRFCFS_HH
#define TENOC_DRAM_FRFCFS_HH

#include <cstdint>

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
    /** Cycles a ready row hit was picked; a pick the data bus refuses
     *  counts again each cycle it is picked. */
    Counter rowHitPicks{"row_hit_picks"};
    /** Queue position of each pick: the older requests it passed. */
    Accumulator reorderDepth{"reorder_depth"};
    /** Cycles CAS issue was gated by a full read-out buffer. */
    Counter blockedByReturnBuffer{"blocked_by_return_buffer"};
};

} // namespace tenoc

#endif // TENOC_DRAM_FRFCFS_HH
