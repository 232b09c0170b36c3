/**
 * @file
 * Warp state for the SIMT core model.
 */

#ifndef TENOC_GPU_WARP_HH
#define TENOC_GPU_WARP_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "gpu/kernel_profile.hh"

namespace tenoc
{

/** One warp (32 scalar threads executing in lock step). */
struct Warp
{
    enum class State : std::uint8_t
    {
        READY,   ///< may issue its next instruction
        BLOCKED, ///< waiting on outstanding memory replies
        DONE     ///< retired all instructions
    };

    unsigned id = 0;
    State state = State::READY;
    std::uint64_t instsRemaining = 0;
    unsigned pendingReplies = 0; ///< outstanding line refills

    /** @return true if the warp may issue given its MLP budget. */
    bool
    canIssue(unsigned max_pending) const
    {
        return state == State::READY && pendingReplies < max_pending;
    }

    /**
     * The decoded-but-not-yet-issued instruction.  Drawn once and held
     * across structural stalls so that congestion cannot bias the
     * instruction mix (a stalled memory instruction must eventually
     * issue as that same memory instruction).
     */
    struct PendingInst
    {
        bool valid = false;
        bool isMem = false;
        std::vector<Addr> lines; ///< coalesced line addresses
    };
    PendingInst next;

    bool ready() const { return state == State::READY; }
    bool done() const { return state == State::DONE; }
};

} // namespace tenoc

#endif // TENOC_GPU_WARP_HH
