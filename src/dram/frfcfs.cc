/**
 * @file
 * FR-FCFS policy implementation.
 */

#include "dram/frfcfs.hh"

#include <bit>

#include "dram/dram_channel.hh"

namespace tenoc
{

std::optional<std::size_t>
FrFcfsScheduler::pickRowHit(const Queue &queue, const DramChannel &ch,
                            Cycle now, FrFcfsStats *stats)
{
    std::uint32_t ready = 0;
    for (std::uint32_t m = ch.queued_banks_; m != 0; m &= m - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(m));
        ready |= static_cast<std::uint32_t>(ch.banks_[b].casReady(now)) << b;
    }
    if (ready == 0)
        return std::nullopt;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const auto &req = queue[i];
        if ((ready >> req.coord.bank & 1u) != 0 &&
            ch.banks_[req.coord.bank].activeRow() == req.coord.row) {
            if (stats) {
                stats->rowHitPicks.inc();
                stats->reorderDepth.sample(static_cast<double>(i));
            }
            return i;
        }
    }
    return std::nullopt;
}

std::optional<std::size_t>
FrFcfsScheduler::pickOldest(const Queue &queue)
{
    if (queue.empty())
        return std::nullopt;
    return 0; // queue is in arrival order
}

} // namespace tenoc
