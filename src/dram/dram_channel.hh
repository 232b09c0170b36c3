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

#include "dram/dram_bank.hh"
#include "dram/frfcfs.hh"

namespace tenoc
{

class SnapshotWriter;
class SnapshotReader;

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

class DramChannel
{
  public:
    explicit DramChannel(const DramChannelParams &params);

    /** @return true if one more request fits in the queue. */
    bool canAccept() const;

    /** Enqueues a request (local address; caller compacted it). */
    void push(DramRequest req, Cycle now);

    /** Advances one memory clock. */
    void cycle(Cycle now);

    /** @return a completed request, if any (pop one per call). */
    std::optional<DramRequest> popCompleted();

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

    /** Serializes queues, in-flight pipeline, bus/turnaround state,
     *  banks, and counters. */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(); bank count must match. */
    void restore(SnapshotReader &r);

    friend class FrFcfsScheduler;

  private:
    /** Adds `req` to the queue, counting it against its bank. */
    void enqueue(DramRequest req);

    DramChannelParams params_;
    std::vector<DramBank> banks_;
    FrFcfsScheduler::Queue queue_;
    /** Queued requests per bank, and the mask of banks with any: the
     *  per-cycle bank scans visit only these banks. */
    std::vector<unsigned> bank_queued_;
    std::uint32_t queued_banks_ = 0;

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
