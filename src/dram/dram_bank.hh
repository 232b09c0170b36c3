/**
 * @file
 * Per-bank DRAM state machine: IDLE -> (ACTIVATE) -> ACTIVE ->
 * (PRECHARGE) -> IDLE, with tRCD/tRAS/tRP/tRC/tRRD constraints.
 */

#ifndef TENOC_DRAM_DRAM_BANK_HH
#define TENOC_DRAM_DRAM_BANK_HH

#include <algorithm>
#include <cstdint>

#include "common/types.hh"
#include "dram/gddr3.hh"

namespace tenoc
{

/** One DRAM bank. */
class DramBank
{
  public:
    enum class State : std::uint8_t { IDLE, ACTIVE };

    explicit DramBank(const Gddr3Timing &timing) : timing_(timing) {}

    State state() const { return state_; }
    std::uint64_t activeRow() const { return active_row_; }

    /** Earliest cycle a CAS to the open row may issue;
     *  INVALID_CYCLE while no row is open. */
    Cycle
    casAt() const
    {
        return state_ == State::ACTIVE ? ready_at_ : INVALID_CYCLE;
    }

    /** Earliest cycle PRECHARGE may issue (tRAS, CAS data out);
     *  INVALID_CYCLE while no row is open. */
    Cycle
    prechargeAt() const
    {
        return state_ == State::ACTIVE
            ? std::max({ras_done_at_, last_cas_end_, ready_at_})
            : INVALID_CYCLE;
    }

    /** Earliest cycle ACTIVATE may issue (tRP, tRC; the cross-bank
     *  tRRD check belongs to the channel); INVALID_CYCLE while a row
     *  is open. */
    Cycle
    activateAt() const
    {
        if (state_ == State::ACTIVE)
            return INVALID_CYCLE;
        return ever_activated_
            ? std::max<Cycle>(ready_at_, last_activate_ + timing_.tRC)
            : ready_at_;
    }

    /** @return true if ACTIVATE may issue at `now`. */
    bool canActivate(Cycle now) const { return now >= activateAt(); }

    /** @return true if a CAS to the open row may issue at `now`. */
    bool casReady(Cycle now) const { return now >= casAt(); }

    /** @return true if a CAS to `row` may issue at `now`. */
    bool
    canCas(Cycle now, std::uint64_t row) const
    {
        return casReady(now) && active_row_ == row;
    }

    /** @return true if PRECHARGE may issue at `now`. */
    bool canPrecharge(Cycle now) const { return now >= prechargeAt(); }

    /** Issues ACTIVATE for `row`. */
    void activate(Cycle now, std::uint64_t row);

    /** Issues a CAS (read or write). */
    void cas(Cycle now);

    /** Issues PRECHARGE. */
    void precharge(Cycle now);

    std::uint64_t activations() const { return activations_; }

  private:
    Gddr3Timing timing_; ///< by value so banks stay assignable
    State state_ = State::IDLE;
    std::uint64_t active_row_ = 0;
    Cycle ready_at_ = 0;        ///< earliest next command to this bank
    Cycle last_activate_ = 0;   ///< for tRC
    Cycle ras_done_at_ = 0;     ///< earliest precharge (tRAS)
    Cycle last_cas_end_ = 0;    ///< earliest precharge after CAS
    bool ever_activated_ = false;
    std::uint64_t activations_ = 0;
};

} // namespace tenoc

#endif // TENOC_DRAM_DRAM_BANK_HH
