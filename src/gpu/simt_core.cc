/**
 * @file
 * SimtCore implementation.
 */

#include "gpu/simt_core.hh"

#include <bit>

#include "common/log.hh"

namespace tenoc
{

namespace
{

/** L1 cache parameters from the kernel profile. */
CacheParams
l1Params(const KernelProfile &profile, unsigned line_bytes)
{
    CacheParams p;
    p.sizeBytes = 16 * 1024; // Table II
    p.lineBytes = line_bytes;
    p.ways = 4;
    p.profileHitRate = profile.l1HitRate;
    p.profileWritebackRate = profile.writebackRate;
    return p;
}

/** @return the signature bit of `line` (Fibonacci hash to 0..63). */
std::uint64_t
lineSigBit(Addr line)
{
    return std::uint64_t{1} << ((line * 0x9e3779b97f4a7c15ull) >> 58);
}

} // namespace

SimtCore::SimtCore(unsigned id, const SimtCoreParams &params,
                   const KernelProfile &profile, CoreMemPort &port,
                   std::uint64_t seed,
                   std::unique_ptr<InstSource> source)
    : id_(id), params_(params), profile_(profile), port_(port),
      rng_(seed ^ (0x5851f42d4c957f2dULL * (id + 1))),
      l1_(l1Params(profile, params.lineBytes), seed + id),
      mshrs_(params.mshrEntries), source_(std::move(source)),
      validate_(validateForcedByEnv())
{
    unsigned want_warps;
    if (source_) {
        want_warps = source_->numWarps();
    } else {
        want_warps = profile_.warpsPerCore;
    }
    const unsigned warps = std::min(want_warps, params_.maxWarps);
    tenoc_assert(warps >= 1 && warps <= 64,
                 "the issue mask holds 1 to 64 warps, not ", warps);
    if (!source_) {
        source_ = std::make_unique<ProfileInstSource>(
            profile_, id_, warps, params_.lineBytes,
            params_.warpSize);
    }
    warps_.resize(warps);
    mshr_park_.resize(warps);
    for (unsigned w = 0; w < warps; ++w) {
        warps_[w].id = w;
        warps_[w].instsRemaining = source_->warpLength(w);
        if (warps_[w].instsRemaining == 0) {
            warps_[w].state = Warp::State::DONE;
            ++warps_done_;
        }
    }
    issuable_ = issuableWarps();
    slot_countdown_ = params_.issueInterval();
}

std::uint64_t
SimtCore::issuableWarps() const
{
    std::uint64_t mask = 0;
    for (const Warp &warp : warps_) {
        if (warp.canIssue(profile_.maxPendingLines))
            mask |= std::uint64_t{1} << warp.id;
    }
    return mask;
}

void
SimtCore::restart()
{
    tenoc_assert(done(), "restart before the previous kernel retired");
    tenoc_assert(mshrs_.size() == 0,
                 "restart with memory traffic in flight");
    source_->rewind();
    warps_done_ = 0;
    rr_warp_ = 0;
    slot_countdown_ = params_.issueInterval();
    for (auto &warp : warps_) {
        warp.state = Warp::State::READY;
        warp.instsRemaining = source_->warpLength(warp.id);
        warp.pendingReplies = 0;
        warp.next = Warp::PendingInst{};
        if (warp.instsRemaining == 0) {
            warp.state = Warp::State::DONE;
            ++warps_done_;
        }
    }
    issuable_ = issuableWarps();
    mshr_parked_ = 0;
    mshr_stale_ = 0;
    port_parked_ = 0;
    port_need_ = ~0u;
}

void
SimtCore::cycle(Cycle core_cycle)
{
    if (done())
        return;
    if (--slot_countdown_ > 0)
        return;
    slot_countdown_ = params_.issueInterval();
    if (!issueSlot(core_cycle))
        ++stall_slots_;
    if (done())
        finish_cycle_ = core_cycle;
}

bool
SimtCore::issueSlot(Cycle core_cycle)
{
    (void)core_cycle;
    // An MSHR-parked warp's verdict changes only with the table, so it
    // is re-judged only at slots where the table has changed.
    if (mshr_parked_ != 0 && mshrs_.generation() != mshr_judged_gen_) {
        judgeMshrParked();
        if (validate_)
            auditMshrParking();
    }
    // Port-parked warps need at least port_need_ requests.  A refusal
    // has no side effects and refuses every larger count too, so they
    // would all be refused again until the port takes port_need_; only
    // then do they rejoin the scan.  One port query per slot replaces
    // one per parked warp.
    if (port_parked_ != 0 && port_.canSendRequests(port_need_)) {
        issuable_ |= port_parked_;
        port_parked_ = 0;
        port_need_ = ~0u;
    }
    // Rotating priority: the issuable warps at or after rr_warp_ in
    // ascending order, then those before it -- the order of a
    // (rr_warp_ + i) % n scan that skips warps which cannot issue.
    const std::uint64_t from_rr =
        issuable_ & (~std::uint64_t{0} << rr_warp_);
    for (std::uint64_t part : {from_rr, issuable_ & ~from_rr}) {
        for (; part != 0; part &= part - 1) {
            const auto w = static_cast<unsigned>(std::countr_zero(part));
            if (tryIssue(w))
                return true;
        }
    }
    return false; // no ready warp
}

bool
SimtCore::tryIssue(unsigned w)
{
    const std::uint64_t bit = std::uint64_t{1} << w;
    Warp &warp = warps_[w];

    // Decode once; a structurally stalled instruction is retried
    // as-is so congestion cannot bias the instruction mix.
    if (!warp.next.valid) {
        source_->decode(w, warp.next, rng_);
        warp.next.valid = true;
    }
    if (warp.next.isMem) {
        const MemIssue res = executeMemInst(warp);
        mshr_parked_ &= ~bit;
        mshr_stale_ &= ~bit;
        if (res == MemIssue::MSHR_FULL) {
            // Park this warp until the free entries cover its need
            // (see judgeMshrParked()).
            issuable_ &= ~bit;
            mshr_parked_ |= bit;
            mshr_park_[w].lines = 0;
            for (Addr raw : warp.next.lines)
                mshr_park_[w].lines |= lineSigBit(l1_.lineAddr(raw));
        } else if (res == MemIssue::PORT_FULL) {
            // Same request count, same refusal: park this warp until
            // the port takes port_need_ (see issueSlot()).
            issuable_ &= ~bit;
            port_parked_ |= bit;
        }
        if (res != MemIssue::ISSUED) {
            // Structural stall: this warp holds its decoded
            // instruction; the scheduler tries the next ready warp.
            return false;
        }
        ++mem_insts_;
    }
    warp.next = Warp::PendingInst{};
    ++warp_insts_;
    scalar_insts_ += params_.warpSize;
    tenoc_assert(warp.instsRemaining > 0, "warp over-ran kernel");
    --warp.instsRemaining;
    if (warp.instsRemaining == 0 && warp.pendingReplies == 0) {
        warp.state = Warp::State::DONE;
        ++warps_done_;
    } else if (warp.instsRemaining == 0) {
        // Retire once the last loads come back.
        warp.state = Warp::State::BLOCKED;
    }
    if (!warp.canIssue(profile_.maxPendingLines))
        issuable_ &= ~bit;
    rr_warp_ = (w + 1) % static_cast<unsigned>(warps_.size());
    return true;
}

SimtCore::MemIssue
SimtCore::executeMemInst(Warp &warp)
{
    const auto &lines = warp.next.lines;

    // Conservative resource check: every line might miss and every
    // miss might add a dirty eviction.  The port refuses port_need_ in
    // this slot (see port_parked_), so it refuses any larger count too.
    const auto need = static_cast<unsigned>(lines.size()) * 2;
    if (need >= port_need_)
        return MemIssue::PORT_FULL;
    if (!port_.canSendRequests(need)) {
        port_need_ = need;
        return MemIssue::PORT_FULL;
    }
    const unsigned mshr_need = mshrNeed(warp);
    if (mshr_need > mshrs_.capacity() - mshrs_.size()) {
        setMshrNeed(warp.id, mshr_need);
        return MemIssue::MSHR_FULL;
    }

    for (Addr raw : lines) {
        const Addr line = l1_.lineAddr(raw);
        const auto res = l1_.access(line);
        if (res.hit)
            continue;
        if (res.writeback) {
            port_.sendWrite(*res.writeback);
            ++writes_sent_;
        }
        // Write-allocate: stores fetch the line too.
        const bool is_new = mshrs_.allocate(
            line, (static_cast<std::uint64_t>(warp.id)));
        noteMshrLine(line);
        if (is_new) {
            port_.sendRead(line);
            ++reads_sent_;
        }
        ++warp.pendingReplies;
    }
    if (warp.pendingReplies >= profile_.maxPendingLines)
        warp.state = Warp::State::BLOCKED;
    return MemIssue::ISSUED;
}

unsigned
SimtCore::mshrNeed(const Warp &warp) const
{
    const auto &lines = warp.next.lines;
    unsigned need = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const Addr line = l1_.lineAddr(lines[i]);
        const bool room = mshrs_.canAllocate(line);
        const std::size_t held = mshrs_.waiters(line);
        if (held == 0) {
            // A full table refuses this line: need > 0 free entries.
            ++need;
            continue;
        }
        if (!room)
            return ~0u;
        // Every later occurrence of a pending line merges onto it too.
        if (held + (lines.size() - i) > mshrs_.maxMerged()) {
            std::size_t uses = 0;
            for (std::size_t j = i; j < lines.size(); ++j)
                uses += l1_.lineAddr(lines[j]) == line;
            if (held + uses > mshrs_.maxMerged())
                return ~0u;
        }
    }
    return need;
}

void
SimtCore::setMshrNeed(unsigned w, unsigned need)
{
    mshr_park_[w].need = need;
    // A merge-full need (~0u) waits for a reply; a need above the table
    // size waits for other warps to make some of its lines pending,
    // which may never happen.
    if (need != ~0u && need > mshrs_.capacity() && !warned_mshr_need_) {
        warned_mshr_need_ = true;
        warn("core ", id_, " warp ", w, ": held memory instruction needs ",
             need, " new MSHR entries but the table holds ",
             mshrs_.capacity(), "; the warp stays parked until other"
             " warps' misses make some of its lines pending (warned"
             " once per core)");
    }
}

void
SimtCore::noteMshrLine(Addr line)
{
    const std::uint64_t sig = lineSigBit(line);
    for (std::uint64_t m = mshr_parked_ & ~mshr_stale_; m != 0;
         m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        if (mshr_park_[w].lines & sig)
            mshr_stale_ |= std::uint64_t{1} << w;
    }
}

void
SimtCore::judgeMshrParked()
{
    // The verdict depends on the table's size and on the pending state
    // and merge counts of the warp's own lines.  The latter change
    // only through events on those lines, which marked the warp stale.
    for (std::uint64_t m = mshr_stale_; m != 0; m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        setMshrNeed(w, mshrNeed(warps_[w]));
    }
    mshr_stale_ = 0;
    mshr_judged_gen_ = mshrs_.generation();
    const std::size_t free = mshrs_.capacity() - mshrs_.size();
    for (std::uint64_t m = mshr_parked_; m != 0; m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        const std::uint64_t bit = std::uint64_t{1} << w;
        // Clearing matters too: an armed warp not yet tried parks
        // again when another warp took its room.
        if (mshr_park_[w].need <= free)
            issuable_ |= bit;
        else
            issuable_ &= ~bit;
    }
}

void
SimtCore::auditMshrParking() const
{
    // Run right after judgeMshrParked(), so no warp is stale: a need
    // that differs from a recount means a missed stale mark.
    const std::size_t free = mshrs_.capacity() - mshrs_.size();
    for (std::uint64_t m = mshr_parked_; m != 0; m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        const std::uint64_t bit = std::uint64_t{1} << w;
        const unsigned need = mshr_park_[w].need;
        const unsigned fresh = mshrNeed(warps_[w]);
        if (need != fresh) {
            tenoc_panic("core ", id_, " warp ", w, ": parked MSHR need ",
                        need, " but a recount gives ", fresh);
        }
        if (((issuable_ & bit) != 0) != (need <= free)) {
            tenoc_panic("core ", id_, " warp ", w, ": MSHR need ", need,
                        " with ", free, " free entries but the warp is ",
                        (issuable_ & bit) ? "armed" : "parked");
        }
    }
}

void
SimtCore::onReadReply(Addr line)
{
    const auto waiters = mshrs_.release(line);
    noteMshrLine(line);

    for (std::uint64_t waiter : waiters) {
        auto &warp = warps_[static_cast<std::size_t>(waiter)];
        tenoc_assert(warp.pendingReplies > 0,
                     "reply for warp with no pending requests");
        --warp.pendingReplies;
        if (warp.state != Warp::State::BLOCKED)
            continue;
        if (warp.instsRemaining == 0) {
            if (warp.pendingReplies == 0) {
                warp.state = Warp::State::DONE;
                ++warps_done_;
            }
        } else if (warp.pendingReplies < profile_.maxPendingLines) {
            warp.state = Warp::State::READY;
            issuable_ |= std::uint64_t{1} << warp.id;
        }
    }
}

void
SimtCore::registerStats(StatGroup &group) const
{
    group.addValue("scalar_insts", [this] {
        return static_cast<double>(scalar_insts_);
    });
    group.addValue("warp_insts", [this] {
        return static_cast<double>(warp_insts_);
    });
    group.addValue("stall_slots", [this] {
        return static_cast<double>(stall_slots_);
    });
    group.addValue("mem_insts", [this] {
        return static_cast<double>(mem_insts_);
    });
    group.addValue("reads_sent", [this] {
        return static_cast<double>(reads_sent_);
    });
    group.addValue("writes_sent", [this] {
        return static_cast<double>(writes_sent_);
    });
}

} // namespace tenoc
