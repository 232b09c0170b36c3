/**
 * @file
 * Router-to-router links: one one-cycle stage per network.
 *
 * Every link takes one interconnect cycle (Table III).  A flit that
 * switch allocation sends at cycle t lands in the downstream router's
 * VC ring at t + 1; the credit a router returns when a flit leaves one
 * of its input buffers reaches the upstream output VC at t + 1.  Both
 * post one entry onto the network's LinkWheel, and the next fire() —
 * the first thing each network cycle does — deposits every entry on
 * it, credits first, then flits, each in the order they were posted:
 *
 *  - a flit goes through Router::pushFlit, which stamps
 *    enqueueCycle = now, files its VC in the RC or SA mask and marks
 *    the router active;
 *  - a credit is added to its OutVc record and wakes nobody.  A
 *    router with no buffered flits has nothing a credit can unblock,
 *    and one with buffered flits is already active.
 *
 * Nothing polls a link, so a router whose flits are all in flight
 * sleeps until the stage hands it one (see docs/performance.md, "The
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

    /** Sets up links whose credits land in `slab`'s output VCs.  Drops
     *  every link and entry. */
    void
    configure(VcSlabs *slab)
    {
        tenoc_assert(slab, "bad link stage setup");
        slab_ = slab;
        releaseTails();
        links_.clear();
        credits_.clear();
        oldest_post_ = INVALID_CYCLE;
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

    /** Posts `flit` on link `l` at cycle `now`; the next fire lands it
     *  downstream.  One flit per link per cycle. */
    void
    sendFlit(unsigned l, const Flit &flit, Cycle now)
    {
        Link &link = links_[l];
        tenoc_assert(link.lastFlit == INVALID_CYCLE || now > link.lastFlit,
                     "a link carries at most one flit per cycle");
        link.lastFlit = now;
        flits_.push_back(FlitEntry{l, flit});
        notePost(now);
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
        credits_.push_back(link.creditBase + vc);
        notePost(now);
    }

    /**
     * Deposits every entry on the stage: credits first, then flits,
     * each in post order.  Call once at the start of each network
     * cycle, before any router runs; a second fire in the same cycle
     * does nothing, so what that cycle posts waits for the next one.
     */
    void
    fire(Cycle now)
    {
        if (primed_ && now <= last_fire_)
            return;
        primed_ = true;
        last_fire_ = now;
        for (const std::size_t out_vc : credits_)
            ++slab_->out[out_vc].credits;
        credits_.clear();
        for (const FlitEntry &e : flits_) {
            const Link &link = links_[e.link];
            link.down->pushFlit(link.downIn, e.flit, now);
        }
        flits_.clear();
        oldest_post_ = INVALID_CYCLE;
    }

    /** Entries on the stage (tests / diagnostics). */
    std::size_t scheduled() const { return flits_.size() + credits_.size(); }

    /** Latest cycle fire() has run at; 0 before the first fire.  Every
     *  entry on the stage should have been posted at or after it. */
    Cycle firedThrough() const { return primed_ ? last_fire_ : 0; }

    /** Earliest cycle an entry on the stage was posted at, or
     *  INVALID_CYCLE when none is.  Before firedThrough(), it names an
     *  entry a fire left behind. */
    Cycle
    oldestPost() const
    {
        return scheduled() == 0 ? INVALID_CYCLE : oldest_post_;
    }

    /** Calls f(link, flit) for every flit on the stage. */
    template <typename F>
    void
    forEachFlit(F &&f) const
    {
        for (const FlitEntry &e : flits_)
            f(e.link, e.flit);
    }

    /** Calls f(output-VC index) for every credit on the stage. */
    template <typename F>
    void
    forEachCredit(F &&f) const
    {
        for (const std::size_t out_vc : credits_)
            f(out_vc);
    }

    // --- mutation-test hook ---
    /** Deliberately loses one credit on the stage.  @return true if
     *  there was one to lose. */
    bool
    dropCredit()
    {
        if (credits_.empty())
            return false;
        credits_.pop_back();
        return true;
    }

  private:
    void
    notePost(Cycle now)
    {
        if (now < oldest_post_)
            oldest_post_ = now;
    }

    /** Drops every flit on the stage, deleting the packets its tails
     *  own (see Flit). */
    void
    releaseTails()
    {
        for (const FlitEntry &e : flits_)
            if (e.flit.tail)
                PacketDeleter{}(e.flit.pkt);
        flits_.clear();
    }

    struct FlitEntry
    {
        std::uint32_t link;
        Flit flit;
    };

    VcSlabs *slab_ = nullptr;
    std::vector<Link> links_;
    std::vector<FlitEntry> flits_;
    /** Global output-VC indices the posted credits land at. */
    std::vector<std::size_t> credits_;
    Cycle oldest_post_ = INVALID_CYCLE;
    bool primed_ = false;
    Cycle last_fire_ = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_LINK_HH
