/**
 * @file
 * One GDDR3 channel: bounded request queue (32 entries, Table II),
 * FR-FCFS command scheduling over the banks, a shared data bus, and
 * completion delivery.
 */

#ifndef TENOC_DRAM_DRAM_CHANNEL_HH
#define TENOC_DRAM_DRAM_CHANNEL_HH

#include <optional>
#include <vector>

#include "common/ring.hh"
#include "dram/dram_bank.hh"
#include "dram/frfcfs.hh"

namespace tenoc
{

/** Channel configuration. */
struct DramChannelParams
{
    Gddr3Timing timing;
    unsigned queueCapacity = 32; ///< Table II
    /** Read-out buffer: when this many serviced requests are waiting
     *  to leave the controller (the reply path is blocked), no further
     *  CAS issues — the mechanism behind the paper's Fig. 11 stalls. */
    unsigned returnBufferCap = 4;
};

/**
 * FR-FCFS over the banks.  The channel keeps, per bank, the queue
 * positions of its oldest request and of its oldest open-row hit and
 * the earliest cycle each command could issue, plus masks of the banks
 * with a queued hit and of those whose oldest request needs a
 * PRECHARGE or ACTIVATE.  Enqueue, CAS, PRECHARGE and ACTIVATE update
 * that state, so a cycle picks by comparing the masked banks and
 * never scans the queue; only a CAS rescans, from the served position
 * on, for its own bank's next requests.
 */
class DramChannel
{
  public:
    /** @param id channel index, named by the TENOC_VALIDATE audit */
    explicit DramChannel(const DramChannelParams &params, unsigned id = 0);

    /** @return true if one more request fits in the queue. */
    bool canAccept() const;

    /** Enqueues a request (local address; caller compacted it). */
    void push(DramRequest req, Cycle now);

    /** Advances one memory clock. */
    void cycle(Cycle now);

    /** @return a completed request, if any (pop one per call). */
    std::optional<DramRequest> popCompleted();

    /** @return true when popCompleted() has a request to return. */
    bool hasCompleted() const { return !completed_.empty(); }

    /** @return true when queue and in-flight pipeline are empty. */
    bool idle() const;

    const DramBank &bank(unsigned i) const { return banks_[i]; }

    // --- stats ---
    std::uint64_t rowHits() const { return row_hits_; }
    std::uint64_t rowMisses() const { return row_misses_; }
    std::uint64_t servedRequests() const { return served_; }
    std::uint64_t busBusyCycles() const { return bus_busy_cycles_; }
    std::uint64_t pendingCycles() const { return pending_cycles_; }

    /** DRAM efficiency per the paper's footnote 7: data-pin busy time
     *  over time with pending requests. */
    double efficiency() const;

    /** @return queue occupancy (for backpressure stats). */
    std::size_t queueDepth() const { return queue_.size(); }

    const FrFcfsStats &schedStats() const { return sched_stats_; }

    /** Registers all channel statistics under `group` (lazy values for
     *  the plain scalar fields plus the scheduler's stat objects). */
    void registerStats(StatGroup &group) const;

  private:
    /** Per-bank scheduling state derived from the queue and the bank. */
    struct BankSched
    {
        unsigned queued = 0; ///< requests queued for the bank
        unsigned head = 0;   ///< queue position of its oldest request
        unsigned hit = 0;    ///< ... of its oldest open-row hit
        Cycle casAt = INVALID_CYCLE;       ///< DramBank::casAt()
        Cycle prechargeAt = INVALID_CYCLE; ///< DramBank::prechargeAt()
        Cycle activateAt = INVALID_CYCLE;  ///< DramBank::activateAt()

        bool operator==(const BankSched &) const = default;
    };

    /** Adds `req` to the queue and to its bank's state. */
    void enqueue(DramRequest req);

    /** Issues the CAS for the hit at queue position `i`, reserves the
     *  data bus for its burst and moves it to the in-flight pipeline. */
    void issueCas(std::size_t i, Cycle now);

    /** Copies bank `b`'s command-ready cycles into its state. */
    void refreshTiming(unsigned b);

    /** @return bank `b`'s state recomputed from the queue and the
     *  bank, with the two mask bits it should have. */
    BankSched derive(unsigned b, bool &hit_bit, bool &prep_bit) const;

    /** TENOC_VALIDATE: panics, naming the channel and the bank, when
     *  the kept state differs from derive() for any bank. */
    void audit() const;

    DramChannelParams params_;
    const unsigned id_;
    const bool validate_; ///< TENOC_VALIDATE is set: audit()
    std::vector<DramBank> banks_;
    /** The controller queue in arrival order; 32 entries (Table II)
     *  stay inline. */
    RingQueue<DramRequest, 32> queue_;
    std::vector<BankSched> sched_;
    std::uint32_t hit_banks_ = 0;  ///< banks with a queued open-row hit
    std::uint32_t prep_banks_ = 0; ///< oldest request needs PRE or ACT

    struct InFlight
    {
        DramRequest req;
        Cycle doneAt;
    };
    /** CAS issue keeps in-flight plus completed requests under the
     *  read-out buffer size, so these stay inline at its default. */
    RingQueue<InFlight, 4> in_flight_;
    RingQueue<DramRequest, 4> completed_;

    Cycle bus_free_at_ = 0;     ///< data bus reserved until
    Cycle last_activate_ = 0;   ///< channel-wide tRRD
    bool ever_activated_ = false;
    bool last_cas_was_write_ = false; ///< for turnaround penalties

    std::uint64_t row_hits_ = 0;
    std::uint64_t row_misses_ = 0;
    std::uint64_t served_ = 0;
    std::uint64_t bus_busy_cycles_ = 0;
    std::uint64_t pending_cycles_ = 0;
    FrFcfsStats sched_stats_;
};

} // namespace tenoc

#endif // TENOC_DRAM_DRAM_CHANNEL_HH
