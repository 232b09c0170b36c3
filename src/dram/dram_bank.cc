/**
 * @file
 * DramBank implementation.
 */

#include "dram/dram_bank.hh"

#include <algorithm>

#include "common/log.hh"

namespace tenoc
{

void
DramBank::activate(Cycle now, std::uint64_t row)
{
    tenoc_assert(canActivate(now), "illegal ACTIVATE");
    state_ = State::ACTIVE;
    active_row_ = row;
    last_activate_ = now;
    ever_activated_ = true;
    ready_at_ = now + timing_.tRCD;
    ras_done_at_ = now + timing_.tRAS;
    last_cas_end_ = now;
    ++activations_;
}

void
DramBank::cas(Cycle now)
{
    tenoc_assert(casReady(now), "illegal CAS");
    // Back-to-back CAS spacing equals the data burst length.
    ready_at_ = now + timing_.burstCycles();
    last_cas_end_ =
        std::max<Cycle>(last_cas_end_,
                        now + timing_.tCL + timing_.burstCycles());
}

void
DramBank::precharge(Cycle now)
{
    tenoc_assert(canPrecharge(now), "illegal PRECHARGE");
    state_ = State::IDLE;
    ready_at_ = now + timing_.tRP;
}

} // namespace tenoc
