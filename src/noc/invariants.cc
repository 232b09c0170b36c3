/**
 * @file
 * InvariantChecker implementation.
 */

#include "noc/invariants.hh"

#include <bit>
#include <unordered_map>

#include "common/log.hh"
#include "noc/link.hh"
#include "noc/network_interface.hh"
#include "noc/router.hh"

namespace tenoc
{

namespace
{

using detail::formatMessage;

void
addViolation(std::vector<Violation> &out, Violation::Kind kind,
             std::string message)
{
    if (out.size() < InvariantChecker::maxViolations)
        out.push_back({kind, std::move(message)});
}

/**
 * Reports the lowest bit where `kept`, one of a router's event-kept
 * stage masks, differs from `derived`, the same mask rebuilt from slab
 * state.  `what` names the mask.
 */
void
compareStageMask(const Router &r, const std::string &what,
                 std::uint64_t kept, std::uint64_t derived,
                 std::vector<Violation> &out)
{
    const std::uint64_t diff = kept ^ derived;
    if (diff == 0)
        return;
    const auto bit = static_cast<unsigned>(std::countr_zero(diff));
    const bool has = (kept >> bit) & 1;
    addViolation(out, Violation::Kind::STAGE_MASK,
                 formatMessage(
                     "router ", r.id(), " ", what, " mask ",
                     has ? "holds" : "lacks", " input ",
                     bit / r.numVcs(), " vc ", bit % r.numVcs(),
                     " but slab state ", has ? "excludes" : "includes",
                     " it"));
}

} // namespace

/** What the link stage holds, counted once per audit. */
struct InvariantChecker::WheelCensus
{
    unsigned vcs = 0;
    /// Flits per (link, VC), index link * vcs + vc.
    std::vector<std::uint32_t> flits;
    /// Credits per global output-VC index.
    std::unordered_map<std::size_t, std::uint32_t> credits;
    std::uint64_t totalFlits = 0;
    std::uint64_t tails = 0;
};

const char *
violationKindName(Violation::Kind kind)
{
    switch (kind) {
      case Violation::Kind::CREDIT_CONSERVATION:
        return "credit_conservation";
      case Violation::Kind::FLIT_CONSERVATION:
        return "flit_conservation";
      case Violation::Kind::PACKET_CONSERVATION:
        return "packet_conservation";
      case Violation::Kind::VC_STATE:
        return "vc_state";
      case Violation::Kind::VC_OWNERSHIP:
        return "vc_ownership";
      case Violation::Kind::OCCUPANCY:
        return "occupancy";
      case Violation::Kind::CONNECTIVITY:
        return "connectivity";
      case Violation::Kind::ACTIVITY:
        return "activity";
      case Violation::Kind::STAGE_MASK:
        return "stage_mask";
      case Violation::Kind::CACHED_FIELD:
        return "cached_field";
    }
    return "unknown";
}

void
InvariantChecker::addRouter(const Router *router)
{
    routers_.push_back(router);
}

void
InvariantChecker::addNi(const NetworkInterface *ni)
{
    nis_.push_back(ni);
}

void
InvariantChecker::checkRouter(const Router &r,
                              std::vector<Violation> &out) const
{
    const unsigned vcs = r.numVcs();
    const unsigned inputs = r.numInputs();
    const unsigned outputs = r.numOutputs();

    for (unsigned in = 0; in < inputs; ++in) {
        for (unsigned vc = 0; vc < vcs; ++vc) {
            const auto occ = r.vcOccupancy(in, vc);
            if (occ > vc_depth_) {
                addViolation(out, Violation::Kind::OCCUPANCY,
                             formatMessage(
                                 "router ", r.id(), " input ", in, " vc ",
                                 vc, ": occupancy ", occ,
                                 " exceeds vcDepth ", vc_depth_));
            }
            const VcState state = r.vcState(in, vc);
            const Flit *front = r.vcFront(in, vc);
            if (front && r.vcHeadAt(in, vc) != front->enqueueCycle) {
                addViolation(out, Violation::Kind::CACHED_FIELD,
                             formatMessage(
                                 "router ", r.id(), " input ", in, " vc ",
                                 vc, ": headAt ", r.vcHeadAt(in, vc),
                                 " but the head flit entered at ",
                                 front->enqueueCycle));
            }
            switch (state) {
              case VcState::IDLE:
                // Between cycles an idle VC may already buffer the
                // next packet, but its front must then be a head flit
                // (routeCompute consumes exactly one worm at a time).
                if (front && !front->head) {
                    addViolation(out, Violation::Kind::VC_STATE,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": IDLE with non-head flit at front"
                                     " (pkt ", front->pkt->id, " seq ",
                                     front->seq, ")"));
                }
                break;
              case VcState::VC_ALLOC: {
                const unsigned out_port = r.vcOutPort(in, vc);
                if (!front) {
                    addViolation(out, Violation::Kind::VC_STATE,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": VC_ALLOC with empty buffer"));
                } else if (!front->head) {
                    addViolation(out, Violation::Kind::VC_STATE,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": VC_ALLOC with non-head front"
                                     " (pkt ", front->pkt->id, " seq ",
                                     front->seq, ")"));
                }
                if (out_port >= outputs) {
                    addViolation(out, Violation::Kind::CONNECTIVITY,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc, ": out port ", out_port,
                                     " out of range (", outputs, ")"));
                } else if (!r.connectivityAllows(in, out_port)) {
                    addViolation(out, Violation::Kind::CONNECTIVITY,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc, ": turn to output ",
                                     out_port,
                                     " violates the connectivity mask"));
                }
                break;
              }
              case VcState::ACTIVE: {
                const unsigned out_port = r.vcOutPort(in, vc);
                const unsigned out_vc = r.vcOutVc(in, vc);
                if (out_port >= outputs || out_vc >= vcs) {
                    addViolation(out, Violation::Kind::CONNECTIVITY,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc, ": ACTIVE targets (",
                                     out_port, ", ", out_vc,
                                     ") out of range"));
                    break;
                }
                if (!r.connectivityAllows(in, out_port)) {
                    addViolation(out, Violation::Kind::CONNECTIVITY,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc, ": ACTIVE turn to"
                                     " output ", out_port,
                                     " violates the connectivity mask"));
                }
                if (!r.outputVcOwned(out_port, out_vc) ||
                    r.outputVcOwnerIn(out_port, out_vc) != in ||
                    r.outputVcOwnerVc(out_port, out_vc) != vc) {
                    addViolation(out, Violation::Kind::VC_OWNERSHIP,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": ACTIVE but output VC (",
                                     out_port, ", ", out_vc,
                                     ") is not owned by it"));
                }
                if (front && front->head && front->seq != 0) {
                    addViolation(out, Violation::Kind::VC_STATE,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": malformed head flit (pkt ",
                                     front->pkt->id, " seq ",
                                     front->seq, ")"));
                }
                break;
              }
            }
        }
    }

    // The stage masks are derived state kept by the pipeline events;
    // they must match what the slab state says.
    const Router::StageMasks &kept = r.stageMasks();
    const Router::StageMasks derived = r.deriveStageMasks();
    compareStageMask(r, "RC", kept.rc, derived.rc, out);
    compareStageMask(r, "VA", kept.va, derived.va, out);
    compareStageMask(r, "SA", kept.sa, derived.sa, out);
    for (unsigned o = 0; o < outputs; ++o) {
        if (kept.vaReqs[o] != derived.vaReqs[o]) {
            compareStageMask(r,
                             "VA request (output " + std::to_string(o) +
                                 ")",
                             kept.vaReqs[o], derived.vaReqs[o], out);
            break;
        }
    }
    // VA visits only the outputs in vaOuts, so an output with requests
    // missing from it would never grant.
    std::uint64_t requested = 0;
    for (unsigned o = 0; o < outputs; ++o)
        requested |= std::uint64_t{kept.vaReqs[o] != 0} << o;
    if (const std::uint64_t diff = kept.vaOuts ^ requested) {
        const auto o = static_cast<unsigned>(std::countr_zero(diff));
        if ((kept.vaOuts >> o) & 1) {
            addViolation(out, Violation::Kind::STAGE_MASK,
                         formatMessage("router ", r.id(),
                                       " VA output mask holds output ", o,
                                       " but no input VC requests it"));
        } else {
            const auto b = static_cast<unsigned>(
                std::countr_zero(kept.vaReqs[o]));
            addViolation(out, Violation::Kind::STAGE_MASK,
                         formatMessage("router ", r.id(),
                                       " VA output mask lacks output ", o,
                                       " but input ", b / vcs, " vc ",
                                       b % vcs, " requests it"));
        }
    }

    for (unsigned o = 0; o < outputs; ++o) {
        const bool directional = o < NUM_DIRS;
        for (unsigned vc = 0; vc < vcs; ++vc) {
            const unsigned credits = r.outputCredits(o, vc);
            const unsigned bound =
                directional && r.outputConnected(o) ? vc_depth_ : 0;
            if (credits > bound) {
                addViolation(out, Violation::Kind::CREDIT_CONSERVATION,
                             formatMessage(
                                 "router ", r.id(), " output ", o, " vc ",
                                 vc, ": ", credits,
                                 " credits exceed bound ", bound));
            }
            if (!r.outputVcOwned(o, vc))
                continue;
            const unsigned in = r.outputVcOwnerIn(o, vc);
            const unsigned in_vc = r.outputVcOwnerVc(o, vc);
            if (in >= r.numInputs() || in_vc >= vcs) {
                addViolation(out, Violation::Kind::VC_OWNERSHIP,
                             formatMessage(
                                 "router ", r.id(), " output VC (", o,
                                 ", ", vc, "): owner (", in, ", ", in_vc,
                                 ") out of range"));
                continue;
            }
            if (r.vcState(in, in_vc) != VcState::ACTIVE ||
                r.vcOutPort(in, in_vc) != o ||
                r.vcOutVc(in, in_vc) != vc) {
                addViolation(out, Violation::Kind::VC_OWNERSHIP,
                             formatMessage(
                                 "router ", r.id(), " output VC (", o,
                                 ", ", vc, "): recorded owner input (",
                                 in, ", ", in_vc,
                                 ") does not hold it"));
            }
        }
    }
}

void
InvariantChecker::checkLinks(const WheelCensus &census,
                             std::vector<Violation> &out) const
{
    // One entry per (link, VC), link-major.
    for (std::size_t i = 0; i < census.flits.size(); ++i) {
        const LinkWheel::Link &link =
            wheel_->link(static_cast<unsigned>(i / census.vcs));
        const auto vc = static_cast<unsigned>(i % census.vcs);
        const unsigned up_credits = link.up->outputCredits(link.outDir, vc);
        const std::size_t flits_in_flight = census.flits[i];
        const auto credit = census.credits.find(link.creditBase + vc);
        const std::size_t credits_in_flight =
            credit == census.credits.end() ? 0 : credit->second;
        const std::size_t down_occ =
            link.down->vcOccupancy(link.downIn, vc);
        const std::size_t total = up_credits + flits_in_flight +
                                  credits_in_flight + down_occ;
        if (total != vc_depth_) {
            addViolation(out, Violation::Kind::CREDIT_CONSERVATION,
                         formatMessage(
                             "link ", link.up->id(), "->",
                             link.down->id(), " dir ", link.outDir,
                             " vc ", vc, ": credits=", up_credits,
                             " + flitsInFlight=", flits_in_flight,
                             " + creditsInFlight=", credits_in_flight,
                             " + downstreamOcc=", down_occ, " = ", total,
                             ", expected vcDepth=", vc_depth_));
        }
    }
}

void
InvariantChecker::checkNis(std::vector<Violation> &out) const
{
    for (const NetworkInterface *ni : nis_) {
        const NiAuditInfo info = ni->audit();
        if (info.pendingInject != info.queuedPackets + info.activeSlots) {
            addViolation(out, Violation::Kind::PACKET_CONSERVATION,
                         formatMessage(
                             "NI ", ni->node(), ": pendingInject=",
                             info.pendingInject, " but queues hold ",
                             info.queuedPackets, " + ", info.activeSlots,
                             " active"));
        }
        if (info.ejOccupancyCounter != info.ejFlits) {
            addViolation(out, Violation::Kind::OCCUPANCY,
                         formatMessage(
                             "NI ", ni->node(), ": ejection counter ",
                             info.ejOccupancyCounter, " != buffered ",
                             info.ejFlits));
        }
        if (const auto &stale = info.staleBase) {
            addViolation(out, Violation::Kind::CACHED_FIELD,
                         formatMessage(
                             "NI ", ni->node(), " class ", stale->cls,
                             " queue entry ", stale->pos,
                             ": cached base VC ", stale->cached,
                             " but the packet's base VC is ",
                             stale->actual));
        }
        if (info.maxEjPortOccupancy > info.ejCapacity) {
            addViolation(out, Violation::Kind::OCCUPANCY,
                         formatMessage(
                             "NI ", ni->node(), ": ejection port holds ",
                             info.maxEjPortOccupancy, " flits, capacity ",
                             info.ejCapacity));
        }
    }
}

void
InvariantChecker::checkConservation(const WheelCensus &census,
                                    std::vector<Violation> &out) const
{
    std::uint64_t buffered = 0;
    std::uint64_t buffered_tails = 0;
    for (const Router *r : routers_) {
        buffered += r->bufferedFlits();
        r->forEachBufferedFlit([&](unsigned, unsigned, const Flit &f) {
            if (f.tail)
                ++buffered_tails;
        });
    }
    std::uint64_t ej_flits = 0;
    std::uint64_t ej_tails = 0;
    std::uint64_t ni_pending = 0;
    for (const NetworkInterface *ni : nis_) {
        const NiAuditInfo info = ni->audit();
        ej_flits += info.ejFlits;
        ej_tails += info.ejTails;
        ni_pending += info.queuedPackets + info.activeSlots;
    }

    const std::uint64_t in_network =
        buffered + census.totalFlits + ej_flits;
    const NetCounters &c = counters_;
    if (c.flitsIn - c.flitsOut != in_network) {
        addViolation(out, Violation::Kind::FLIT_CONSERVATION,
                     formatMessage(
                         "flits injected ", c.flitsIn, " - drained ",
                         c.flitsOut, " = ", c.flitsIn - c.flitsOut,
                         " but the network holds ", in_network,
                         " (routers=", buffered,
                         " links=", census.totalFlits,
                         " ejection=", ej_flits, ")"));
    }

    const std::uint64_t held =
        ni_pending + buffered_tails + census.tails + ej_tails;
    if (c.inflight != held) {
        addViolation(out, Violation::Kind::PACKET_CONSERVATION,
                     formatMessage(
                         "in-flight counter ", c.inflight,
                         " != held packets ", held, " (NI pending=",
                         ni_pending, " tails: routers=", buffered_tails,
                         " links=", census.tails, " ejection=", ej_tails,
                         ")"));
    }
}

void
InvariantChecker::checkActivity(std::vector<Violation> &out) const
{
    // A router whose flits are all on links is legitimately retired:
    // the stage marks it when one lands.  So no entry may outlive the
    // fire that follows its post.
    if (wheel_ && wheel_->oldestPost() < wheel_->firedThrough()) {
        addViolation(out, Violation::Kind::ACTIVITY,
                     formatMessage(
                         "link stage holds ", wheel_->scheduled(),
                         " entries, the oldest posted at cycle ",
                         wheel_->oldestPost(), ", but its fire at cycle ",
                         wheel_->firedThrough(),
                         " never delivered it"));
    }
    for (std::size_t n = 0; n < routers_.size(); ++n) {
        if (!routers_[n]->empty() &&
            !router_set_.test(static_cast<unsigned>(n))) {
            addViolation(out, Violation::Kind::ACTIVITY,
                         formatMessage(
                             "router ", routers_[n]->id(),
                             " could work but is retired from the"
                             " active set (idle-skip would strand"
                             " its traffic)"));
        }
    }
    for (std::size_t n = 0; n < nis_.size(); ++n) {
        if (!nis_[n]->idle() && !ni_set_.test(static_cast<unsigned>(n))) {
            addViolation(out, Violation::Kind::ACTIVITY,
                         formatMessage(
                             "NI ", nis_[n]->node(),
                             " holds work but is retired from the"
                             " active set"));
        }
    }
}

std::vector<Violation>
InvariantChecker::audit() const
{
    WheelCensus census;
    if (wheel_ && !routers_.empty()) {
        census.vcs = routers_.front()->numVcs();
        census.flits.assign(wheel_->numLinks() * census.vcs, 0);
        wheel_->forEachFlit([&](unsigned link, const Flit &f) {
            if (f.vc < census.vcs)
                ++census.flits[link * census.vcs + f.vc];
            ++census.totalFlits;
            census.tails += f.tail;
        });
        wheel_->forEachCredit(
            [&](std::size_t out_vc) { ++census.credits[out_vc]; });
    }
    std::vector<Violation> out;
    for (const Router *r : routers_)
        checkRouter(*r, out);
    checkLinks(census, out);
    checkNis(out);
    checkConservation(census, out);
    checkActivity(out);
    return out;
}

void
InvariantChecker::check(Cycle now) const
{
    const auto violations = audit();
    if (violations.empty())
        return;
    std::string msg = formatMessage("invariant check failed at cycle ",
                                    now, " (", violations.size(),
                                    " violation(s)):");
    for (const Violation &v : violations) {
        msg += formatMessage("\n  [", violationKindName(v.kind), "] ",
                             v.message);
    }
    tenoc_panic(msg);
}

Cycle
InvariantChecker::oldestCreated() const
{
    Cycle oldest = INVALID_CYCLE;
    auto track = [&oldest](Cycle created) {
        if (created != INVALID_CYCLE &&
            (oldest == INVALID_CYCLE || created < oldest)) {
            oldest = created;
        }
    };
    for (const NetworkInterface *ni : nis_)
        track(ni->audit().oldestCreated);
    for (const Router *r : routers_) {
        r->forEachBufferedFlit([&](unsigned, unsigned, const Flit &f) {
            track(f.pkt->createdCycle);
        });
    }
    if (wheel_) {
        wheel_->forEachFlit([&](unsigned, const Flit &f) {
            track(f.pkt->createdCycle);
        });
    }
    return oldest;
}

} // namespace tenoc
