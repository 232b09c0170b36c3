/**
 * @file
 * Router-to-router links: one timing wheel per network.
 *
 * A link has a fixed latency in interconnect cycles.  A flit that
 * switch allocation sends at cycle t lands in the downstream router's
 * VC ring at t + latency; the credit a router returns when a flit
 * leaves one of its input buffers reaches the upstream output VC at
 * t + latency.  Both post one entry into the network's LinkWheel,
 * bucketed by that due cycle, and fire(now) — the first thing each
 * network cycle does — deposits every due entry directly:
 *
 *  - a flit goes through Router::pushFlit, which stamps
 *    enqueueCycle = now, files its VC in the RC or SA mask and marks
 *    the router active;
 *  - a credit is added to its OutVc record and wakes nobody.  A
 *    router with no buffered flits has nothing a credit can unblock,
 *    and one with buffered flits is already active.
 *
 * Nothing polls a link, so a router whose flits are all in flight
 * sleeps until the wheel hands it one (see docs/performance.md, "The
 * NoC scheduler").
 */

#ifndef TENOC_NOC_LINK_HH
#define TENOC_NOC_LINK_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "noc/flit.hh"
#include "noc/router.hh"
#include "noc/slab.hh"

namespace tenoc
{

/** Every link of one network, and the flits and credits on them. */
class LinkWheel
{
  public:
    LinkWheel() = default;
    LinkWheel(const LinkWheel &) = delete;
    LinkWheel &operator=(const LinkWheel &) = delete;
    /** Deletes the packets that tails in flight own. */
    ~LinkWheel() { releaseTails(); }

    /** One link: `up`'s output `outDir` into `down`'s input `downIn`. */
    struct Link
    {
        const Router *up;
        unsigned outDir;
        Router *down;
        unsigned downIn;
        /** Global output-VC index of `up`'s (outDir, VC 0) in `slab`:
         *  credits returning on this link land at creditBase + vc. */
        std::size_t creditBase;
        Cycle lastFlit = INVALID_CYCLE;
        Cycle lastCredit = INVALID_CYCLE;
    };

    /**
     * Sizes the wheel for links of `latency` cycles whose credits land
     * in `slab`'s output VCs.  Drops every link and entry.
     */
    void
    configure(Cycle latency, VcSlabs *slab)
    {
        tenoc_assert(latency >= 1 && slab, "bad link wheel setup");
        latency_ = latency;
        slab_ = slab;
        releaseTails();
        links_.clear();
        // Power-of-two bucket count > the post distance, so two live
        // entries share a bucket only when a driver posts without
        // firing; fire() keeps the later one (aliasing).
        std::size_t w = 4;
        while (w < latency + 2)
            w <<= 1;
        buckets_.clear();
        buckets_.resize(w);
        mask_ = w - 1;
        population_ = 0;
        primed_ = false;
        last_fire_ = 0;
    }

    /** Registers a link (Router::connect) and @return its index. */
    unsigned
    addLink(const Link &link)
    {
        links_.push_back(link);
        return static_cast<unsigned>(links_.size() - 1);
    }

    std::size_t numLinks() const { return links_.size(); }
    const Link &link(unsigned i) const { return links_[i]; }

    /** Posts `flit` on link `l` at cycle `now`; it lands downstream at
     *  now + latency.  One flit per link per cycle. */
    void
    sendFlit(unsigned l, const Flit &flit, Cycle now)
    {
        Link &link = links_[l];
        tenoc_assert(link.lastFlit == INVALID_CYCLE || now > link.lastFlit,
                     "a link carries at most one flit per cycle");
        link.lastFlit = now;
        const Cycle due = now + latency_;
        buckets_[due & mask_].flits.push_back(FlitEntry{due, l, flit});
        ++population_;
    }

    /** Posts a credit for VC `vc` back up link `l` at cycle `now`.
     *  One credit per link per cycle. */
    void
    sendCredit(unsigned l, unsigned vc, Cycle now)
    {
        Link &link = links_[l];
        tenoc_assert(link.lastCredit == INVALID_CYCLE ||
                         now > link.lastCredit,
                     "a link returns at most one credit per cycle");
        link.lastCredit = now;
        const Cycle due = now + latency_;
        buckets_[due & mask_].credits.push_back(
            CreditEntry{due, link.creditBase + vc});
        ++population_;
    }

    /**
     * Deposits every entry due by cycle `now`.  Call once at the start
     * of each network cycle, before any router runs.  A driver that
     * skips cycles gets every bucket of the gap, oldest first (a gap of
     * a whole turn or more, or the first fire of a fresh wheel, sweeps
     * every bucket), so the flits of one link land in send order.
     */
    void
    fire(Cycle now)
    {
        if (primed_ && now <= last_fire_)
            return;
        const bool sweep_all =
            !primed_ || now - last_fire_ >= buckets_.size();
        const Cycle first = primed_ ? last_fire_ + 1 : now + 1;
        const Cycle count = sweep_all ? buckets_.size() : now - last_fire_;
        primed_ = true;
        last_fire_ = now;
        for (Cycle c = first; population_ != 0 && c < first + count; ++c)
            fireBucket(buckets_[c & mask_], now);
    }

    /** Entries on the wheel (tests / diagnostics). */
    std::size_t scheduled() const { return population_; }

    /** Latest cycle fire() has delivered; 0 before the first fire (no
     *  entry is due at cycle 0: every post is at least one cycle out).
     *  After a fire, no entry is due at or before this cycle. */
    Cycle firedThrough() const { return primed_ ? last_fire_ : 0; }

    /** Calls f(due, link, flit) for every flit on the wheel. */
    template <typename F>
    void
    forEachFlit(F &&f) const
    {
        for (const Bucket &b : buckets_)
            for (const FlitEntry &e : b.flits)
                f(e.due, e.link, e.flit);
    }

    /** Calls f(due, output-VC index) for every credit on the wheel. */
    template <typename F>
    void
    forEachCredit(F &&f) const
    {
        for (const Bucket &b : buckets_)
            for (const CreditEntry &e : b.credits)
                f(e.due, e.outVc);
    }

    // --- mutation-test hook ---
    /** Deliberately loses one credit on the wheel.  @return true if
     *  there was one to lose. */
    bool
    dropCredit()
    {
        for (Bucket &b : buckets_) {
            if (!b.credits.empty()) {
                b.credits.pop_back();
                --population_;
                return true;
            }
        }
        return false;
    }

  private:
    /** Drops every flit on the wheel, deleting the packets its tails
     *  own (see Flit). */
    void
    releaseTails()
    {
        for (Bucket &b : buckets_) {
            for (const FlitEntry &e : b.flits)
                if (e.flit.tail)
                    PacketDeleter{}(e.flit.pkt);
            population_ -= b.flits.size();
            b.flits.clear();
        }
    }

    struct FlitEntry
    {
        Cycle due;
        std::uint32_t link;
        Flit flit;
    };

    struct CreditEntry
    {
        Cycle due;
        std::size_t outVc;
    };

    struct Bucket
    {
        std::vector<FlitEntry> flits;
        std::vector<CreditEntry> credits;
    };

    /** Delivers the due entries of one bucket and keeps the rest (an
     *  aliased entry one wheel turn out stays for its own cycle). */
    void
    fireBucket(Bucket &b, Cycle now)
    {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < b.credits.size(); ++i) {
            const CreditEntry &e = b.credits[i];
            if (e.due <= now)
                ++slab_->out[e.outVc].credits;
            else
                b.credits[keep++] = e;
        }
        population_ -= b.credits.size() - keep;
        b.credits.resize(keep);
        keep = 0;
        for (std::size_t i = 0; i < b.flits.size(); ++i) {
            const FlitEntry &e = b.flits[i];
            if (e.due <= now) {
                const Link &link = links_[e.link];
                link.down->pushFlit(link.downIn, e.flit, now);
            } else {
                b.flits[keep++] = e;
            }
        }
        population_ -= b.flits.size() - keep;
        b.flits.resize(keep);
    }

    Cycle latency_ = 1;
    VcSlabs *slab_ = nullptr;
    std::vector<Link> links_;
    std::vector<Bucket> buckets_;
    std::size_t mask_ = 0;
    std::size_t population_ = 0;
    bool primed_ = false;
    Cycle last_fire_ = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_LINK_HH
