/**
 * @file
 * DramChannel implementation.
 */

#include "dram/dram_channel.hh"

#include <bit>

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

DramChannel::DramChannel(const DramChannelParams &params)
    : params_(params)
{
    tenoc_assert(params_.queueCapacity >= 1, "queue too small");
    tenoc_assert(params_.timing.numBanks >= 1 &&
                 params_.timing.numBanks <= 32,
                 "bank count must fit the scheduler's bank mask");
    banks_.assign(params_.timing.numBanks, DramBank(params_.timing));
    bank_queued_.assign(params_.timing.numBanks, 0);
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
}

void
DramChannel::enqueue(DramRequest req)
{
    ++bank_queued_[req.coord.bank];
    queued_banks_ |= 1u << req.coord.bank;
    queue_.emplace_back(std::move(req));
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

    // One command per cycle.  First preference: a ready row hit whose
    // data burst can be scheduled on the bus (FR-FCFS).  CAS is gated
    // on read-out buffer space so a blocked reply path stalls the
    // DRAM pipeline (Fig. 11).
    const bool return_space =
        in_flight_.size() + completed_.size() < params_.returnBufferCap;
    if (!return_space)
        sched_stats_.blockedByReturnBuffer.inc();
    const auto hit = return_space
        ? FrFcfsScheduler::pickRowHit(queue_, *this, now,
                                      &sched_stats_)
        : std::optional<std::size_t>{};
    if (hit) {
        const std::size_t i = *hit;
        DramRequest req = queue_[i];
        auto &bank = banks_[req.coord.bank];
        // Switching the data bus between reads and writes costs a
        // turnaround bubble (tRTW / tWTR).
        Cycle bus_ready = bus_free_at_;
        if (served_ > 0 && req.write != last_cas_was_write_) {
            bus_ready += req.write ? t.tRTW : t.tWTR;
        }
        const Cycle data_start = std::max<Cycle>(now + t.tCL,
                                                 bus_ready);
        // Issue only if the data bus is free when the burst starts;
        // otherwise wait (bus contention).
        if (data_start == now + t.tCL) {
            bank.cas(now);
            bus_free_at_ = data_start + t.burstCycles();
            last_cas_was_write_ = req.write;
            if (req.openedRow)
                ++row_misses_;
            else
                ++row_hits_;
            if (--bank_queued_[req.coord.bank] == 0)
                queued_banks_ &= ~(1u << req.coord.bank);
            in_flight_.emplace_back(
                InFlight{std::move(req), data_start + t.burstCycles()});
            queue_.erase(i);
            ++served_;
            return;
        }
    }

    // Otherwise prepare a bank.  Banks are prepared in parallel: for
    // each bank, only its oldest queued request steers it (no row
    // thrashing), and the single command slot this cycle goes to the
    // eligible preparation whose request is oldest (FCFS).  Only banks
    // with queued requests that could take a PRECHARGE or ACTIVATE now
    // can act, so the scan ends once each has met its oldest request.
    const bool rrd_ok =
        !ever_activated_ || now >= last_activate_ + t.tRRD;
    std::uint32_t can_act = 0;
    for (std::uint32_t m = queued_banks_; m != 0; m &= m - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(m));
        const DramBank &bank = banks_[b];
        const bool can = bank.canPrecharge(now) |
            (rrd_ok & bank.canActivate(now));
        can_act |= static_cast<std::uint32_t>(can) << b;
    }
    std::uint32_t seen_banks = 0;
    for (std::size_t i = 0;
         i < queue_.size() && (can_act & ~seen_banks) != 0; ++i) {
        DramRequest &req = queue_[i];
        const std::uint32_t bit = 1u << req.coord.bank;
        if (seen_banks & bit)
            continue;
        seen_banks |= bit;
        if ((can_act & bit) == 0)
            continue;
        auto &bank = banks_[req.coord.bank];
        if (bank.state() == DramBank::State::ACTIVE) {
            if (bank.activeRow() == req.coord.row)
                continue; // ready or waiting on CAS/bus
            bank.precharge(now);
            return;
        }
        // Bank idle: activate (tRRD was checked with can_act).
        bank.activate(now, req.coord.row);
        req.openedRow = true;
        last_activate_ = now;
        ever_activated_ = true;
        return;
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

namespace
{

void
saveRequest(SnapshotWriter &w, const DramRequest &req)
{
    w.u64(req.localAddr);
    w.boolean(req.write);
    w.u64(req.tag);
    w.u64(req.arrival);
    w.u32(req.coord.bank);
    w.u64(req.coord.row);
    w.boolean(req.openedRow);
}

DramRequest
loadRequest(SnapshotReader &r)
{
    DramRequest req;
    req.localAddr = r.u64();
    req.write = r.boolean();
    req.tag = r.u64();
    req.arrival = r.u64();
    req.coord.bank = r.u32();
    req.coord.row = r.u64();
    req.openedRow = r.boolean();
    return req;
}

} // namespace

void
DramChannel::save(SnapshotWriter &w) const
{
    w.tag("DRAM");
    w.u64(banks_.size());
    for (const DramBank &bank : banks_)
        bank.save(w);
    w.u64(queue_.size());
    queue_.forEach([&w](const DramRequest &req) { saveRequest(w, req); });
    w.u64(in_flight_.size());
    in_flight_.forEach([&w](const InFlight &inf) {
        saveRequest(w, inf.req);
        w.u64(inf.doneAt);
    });
    w.u64(completed_.size());
    completed_.forEach(
        [&w](const DramRequest &req) { saveRequest(w, req); });
    w.u64(bus_free_at_);
    w.u64(last_activate_);
    w.boolean(ever_activated_);
    w.boolean(last_cas_was_write_);
    w.u64(row_hits_);
    w.u64(row_misses_);
    w.u64(served_);
    w.u64(bus_busy_cycles_);
    w.u64(pending_cycles_);
    saveStat(w, sched_stats_.rowHitPicks);
    saveStat(w, sched_stats_.reorderDepth);
    saveStat(w, sched_stats_.blockedByReturnBuffer);
}

void
DramChannel::restore(SnapshotReader &r)
{
    r.tag("DRAM");
    const std::uint64_t nbanks = r.u64();
    tenoc_assert(nbanks == banks_.size(),
                 "DRAM bank count mismatch in snapshot");
    for (DramBank &bank : banks_)
        bank.restore(r);
    queue_.clear();
    bank_queued_.assign(banks_.size(), 0);
    queued_banks_ = 0;
    const std::uint64_t nq = r.u64();
    for (std::uint64_t i = 0; i < nq; ++i)
        enqueue(loadRequest(r));
    in_flight_.clear();
    const std::uint64_t nf = r.u64();
    for (std::uint64_t i = 0; i < nf; ++i) {
        DramRequest req = loadRequest(r);
        in_flight_.emplace_back(InFlight{std::move(req), r.u64()});
    }
    completed_.clear();
    const std::uint64_t nc = r.u64();
    for (std::uint64_t i = 0; i < nc; ++i)
        completed_.emplace_back(loadRequest(r));
    bus_free_at_ = r.u64();
    last_activate_ = r.u64();
    ever_activated_ = r.boolean();
    last_cas_was_write_ = r.boolean();
    row_hits_ = r.u64();
    row_misses_ = r.u64();
    served_ = r.u64();
    bus_busy_cycles_ = r.u64();
    pending_cycles_ = r.u64();
    restoreStat(r, sched_stats_.rowHitPicks);
    restoreStat(r, sched_stats_.reorderDepth);
    restoreStat(r, sched_stats_.blockedByReturnBuffer);
}

} // namespace tenoc
