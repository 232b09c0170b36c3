/**
 * @file
 * DramChannel implementation.
 */

#include "dram/dram_channel.hh"

#include <bit>

#include "common/log.hh"

namespace tenoc
{

DramChannel::DramChannel(const DramChannelParams &params, unsigned id)
    : params_(params), id_(id), validate_(validateForcedByEnv())
{
    tenoc_assert(params_.queueCapacity >= 1, "queue too small");
    tenoc_assert(params_.timing.numBanks >= 1 &&
                 params_.timing.numBanks <= 32,
                 "bank count must fit the scheduler's bank masks");
    banks_.assign(params_.timing.numBanks, DramBank(params_.timing));
    sched_.assign(params_.timing.numBanks, BankSched{});
    for (unsigned b = 0; b < banks_.size(); ++b)
        refreshTiming(b);
}

bool
DramChannel::canAccept() const
{
    return queue_.size() < params_.queueCapacity;
}

void
DramChannel::push(DramRequest req, Cycle now)
{
    tenoc_assert(canAccept(), "DRAM queue overflow");
    req.arrival = now;
    req.coord = mapAddress(params_.timing, req.localAddr);
    enqueue(std::move(req));
    if (validate_)
        audit();
}

void
DramChannel::enqueue(DramRequest req)
{
    const unsigned b = req.coord.bank;
    const std::uint32_t bit = 1u << b;
    const DramBank &bank = banks_[b];
    BankSched &s = sched_[b];
    const auto pos = static_cast<unsigned>(queue_.size());
    const bool hit = bank.state() == DramBank::State::ACTIVE &&
        bank.activeRow() == req.coord.row;
    if (s.queued++ == 0) {
        s.head = pos;
        if (!hit)
            prep_banks_ |= bit;
    }
    if (hit && (hit_banks_ & bit) == 0) {
        s.hit = pos;
        hit_banks_ |= bit;
    }
    queue_.emplace_back(std::move(req));
}

void
DramChannel::refreshTiming(unsigned b)
{
    BankSched &s = sched_[b];
    s.casAt = banks_[b].casAt();
    s.prechargeAt = banks_[b].prechargeAt();
    s.activateAt = banks_[b].activateAt();
}

void
DramChannel::cycle(Cycle now)
{
    // Retire in-flight transfers whose data burst has finished.
    while (!in_flight_.empty() && in_flight_.front().doneAt <= now) {
        completed_.emplace_back(std::move(in_flight_.front().req));
        in_flight_.pop_front();
    }

    const bool pending = !queue_.empty() || !in_flight_.empty();
    if (pending)
        ++pending_cycles_;
    if (now < bus_free_at_)
        ++bus_busy_cycles_;

    if (queue_.empty())
        return;

    const auto &t = params_.timing;
    constexpr unsigned NONE = ~0u;

    // One command per cycle.  First preference: the oldest row hit at
    // a bank ready for a CAS, if its data burst can be scheduled on
    // the bus (FR-FCFS).  CAS is gated on read-out buffer space so a
    // blocked reply path stalls the DRAM pipeline (Fig. 11).  The pick
    // is counted whether or not the bus then takes it.
    const bool return_space =
        in_flight_.size() + completed_.size() < params_.returnBufferCap;
    if (!return_space)
        sched_stats_.blockedByReturnBuffer.inc();
    unsigned hit = NONE;
    if (return_space) {
        for (std::uint32_t m = hit_banks_; m != 0; m &= m - 1) {
            const BankSched &s =
                sched_[static_cast<unsigned>(std::countr_zero(m))];
            if (now >= s.casAt && s.hit < hit)
                hit = s.hit;
        }
    }
    if (hit != NONE) {
        sched_stats_.rowHitPicks.inc();
        sched_stats_.reorderDepth.sample(static_cast<double>(hit));
        const bool write = queue_[hit].write;
        // Switching the data bus between reads and writes costs a
        // turnaround bubble (tRTW / tWTR).
        Cycle bus_ready = bus_free_at_;
        if (served_ > 0 && write != last_cas_was_write_)
            bus_ready += write ? t.tRTW : t.tWTR;
        // Issue only if the data bus is free when the burst starts;
        // otherwise wait (bus contention).
        if (bus_ready <= now + t.tCL) {
            issueCas(hit, now);
            if (validate_)
                audit();
            return;
        }
    }

    // Otherwise prepare a bank.  Banks are prepared in parallel: for
    // each bank, only its oldest queued request steers it (no row
    // thrashing), and the single command slot this cycle goes to the
    // eligible preparation whose request is oldest (FCFS).
    const bool rrd_ok =
        !ever_activated_ || now >= last_activate_ + t.tRRD;
    unsigned prep = NONE;
    unsigned prep_bank = 0;
    for (std::uint32_t m = prep_banks_; m != 0; m &= m - 1) {
        const auto b = static_cast<unsigned>(std::countr_zero(m));
        const BankSched &s = sched_[b];
        const bool can =
            (now >= s.prechargeAt) | (rrd_ok & (now >= s.activateAt));
        if (can & (s.head < prep)) {
            prep = s.head;
            prep_bank = b;
        }
    }
    if (prep == NONE)
        return;
    DramBank &bank = banks_[prep_bank];
    BankSched &s = sched_[prep_bank];
    const std::uint32_t bit = 1u << prep_bank;
    if (bank.state() == DramBank::State::ACTIVE) {
        // The oldest request wants another row: close this one.
        bank.precharge(now);
        hit_banks_ &= ~bit;
        s.hit = 0;
    } else {
        // Bank idle: open the oldest request's row, which makes that
        // request the bank's oldest hit.
        DramRequest &req = queue_[prep];
        bank.activate(now, req.coord.row);
        req.openedRow = true;
        last_activate_ = now;
        ever_activated_ = true;
        s.hit = s.head;
        hit_banks_ |= bit;
        prep_banks_ &= ~bit;
    }
    refreshTiming(prep_bank);
    if (validate_)
        audit();
}

void
DramChannel::issueCas(std::size_t i, Cycle now)
{
    DramRequest req = std::move(queue_[i]);
    queue_.erase(i);
    const unsigned b = req.coord.bank;
    const std::uint32_t bit = 1u << b;
    DramBank &bank = banks_[b];
    BankSched &s = sched_[b];
    bank.cas(now);
    refreshTiming(b);
    bus_free_at_ = now + params_.timing.tCL + params_.timing.burstCycles();
    last_cas_was_write_ = req.write;
    if (req.openedRow)
        ++row_misses_;
    else
        ++row_hits_;
    ++served_;
    in_flight_.emplace_back(InFlight{std::move(req), bus_free_at_});

    // Every queued request behind the served one moved up a place.
    const auto pos = static_cast<unsigned>(i);
    for (std::uint32_t m = hit_banks_ | prep_banks_; m != 0; m &= m - 1) {
        BankSched &o = sched_[static_cast<unsigned>(std::countr_zero(m))];
        o.head -= o.head > pos;
        o.hit -= o.hit > pos;
    }
    const bool was_head = s.head == pos;
    if (--s.queued == 0) {
        s.head = s.hit = 0;
        hit_banks_ &= ~bit;
        prep_banks_ &= ~bit;
        return;
    }
    // The served request was the bank's oldest hit, so its next hit,
    // and its next oldest request if it was that too, now sit at or
    // after its place.  The scan ends once it has met every request
    // left at the bank.
    bool found_hit = false;
    bool need_head = was_head;
    unsigned left = s.queued;
    for (std::size_t k = i; k < queue_.size() && left != 0; ++k) {
        const DramCoord &c = queue_[k].coord;
        if (c.bank != b)
            continue;
        --left;
        if (need_head) {
            s.head = static_cast<unsigned>(k);
            need_head = false;
        }
        if (c.row == bank.activeRow()) {
            s.hit = static_cast<unsigned>(k);
            found_hit = true;
            break;
        }
    }
    if (!found_hit) {
        s.hit = 0;
        hit_banks_ &= ~bit;
    }
    if (found_hit && s.hit == s.head)
        prep_banks_ &= ~bit;
    else
        prep_banks_ |= bit;
}

DramChannel::BankSched
DramChannel::derive(unsigned b, bool &hit_bit, bool &prep_bit) const
{
    const DramBank &bank = banks_[b];
    BankSched s;
    s.casAt = bank.casAt();
    s.prechargeAt = bank.prechargeAt();
    s.activateAt = bank.activateAt();
    hit_bit = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const DramCoord &c = queue_[i].coord;
        if (c.bank != b)
            continue;
        if (s.queued++ == 0)
            s.head = static_cast<unsigned>(i);
        if (!hit_bit && bank.state() == DramBank::State::ACTIVE &&
            c.row == bank.activeRow()) {
            s.hit = static_cast<unsigned>(i);
            hit_bit = true;
        }
    }
    prep_bit = s.queued != 0 && !(hit_bit && s.hit == s.head);
    return s;
}

void
DramChannel::audit() const
{
    for (unsigned b = 0; b < banks_.size(); ++b) {
        bool hit_bit = false;
        bool prep_bit = false;
        const BankSched want = derive(b, hit_bit, prep_bit);
        if (!(sched_[b] == want) || hit_bit != ((hit_banks_ >> b & 1u) != 0) ||
            prep_bit != ((prep_banks_ >> b & 1u) != 0)) {
            tenoc_panic("DRAM channel ", id_, " bank ", b,
                        ": kept FR-FCFS state (queued ", sched_[b].queued,
                        ", head ", sched_[b].head, ", hit ", sched_[b].hit,
                        ") differs from the queue and bank (queued ",
                        want.queued, ", head ", want.head, ", hit ",
                        want.hit, ")");
        }
    }
}

std::optional<DramRequest>
DramChannel::popCompleted()
{
    if (completed_.empty())
        return std::nullopt;
    DramRequest r = std::move(completed_.front());
    completed_.pop_front();
    return r;
}

bool
DramChannel::idle() const
{
    return queue_.empty() && in_flight_.empty() && completed_.empty();
}

double
DramChannel::efficiency() const
{
    if (pending_cycles_ == 0)
        return 0.0;
    return static_cast<double>(bus_busy_cycles_) /
        static_cast<double>(pending_cycles_);
}

void
DramChannel::registerStats(StatGroup &group) const
{
    group.addValue("row_hits", [this] {
        return static_cast<double>(row_hits_);
    });
    group.addValue("row_misses", [this] {
        return static_cast<double>(row_misses_);
    });
    group.addValue("served_requests", [this] {
        return static_cast<double>(served_);
    });
    group.addValue("bus_busy_cycles", [this] {
        return static_cast<double>(bus_busy_cycles_);
    });
    group.addValue("pending_cycles", [this] {
        return static_cast<double>(pending_cycles_);
    });
    group.addValue("efficiency", [this] { return efficiency(); });
    group.add(&sched_stats_.rowHitPicks);
    group.add(&sched_stats_.reorderDepth);
    group.add(&sched_stats_.blockedByReturnBuffer);
}

} // namespace tenoc
