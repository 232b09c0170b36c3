/**
 * @file
 * Pipelined point-to-point channels.
 *
 * A Channel models a wire with a fixed latency in interconnect cycles:
 * items pushed at cycle t become visible to the receiver at cycle
 * t + latency.  Both flit channels and reverse credit channels use the
 * same primitive.
 */

#ifndef TENOC_NOC_CHANNEL_HH
#define TENOC_NOC_CHANNEL_HH

#include <optional>
#include <utility>

#include "common/log.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "noc/arrival.hh"

namespace tenoc
{

/**
 * FIFO channel with delivery latency.  At most one item may be pushed
 * per cycle (enforced); receivers poll with receive(now).
 *
 * In-flight items live in an inline-storage ring (common/ring.hh): a
 * steady-state channel (population bounded by its latency) touches no
 * heap at all.  The ring makes channels non-copyable; networks store
 * them by value in a std::deque, which constructs in place and never
 * relocates.
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(Cycle latency = 1) : latency_(latency) {}

    Cycle latency() const { return latency_; }

    /**
     * Registers the receiver with its network's arrival scheduler:
     * each send posts a wake at the delivery cycle (setting `bit` in
     * the receiver's pending-port word), so an idle receiver sleeps
     * until the item actually arrives.  A channel without a scheduler
     * (a bare channel in a unit test) wakes nobody.
     */
    void
    setArrivalTarget(ArrivalScheduler *sched, unsigned index,
                     std::uint32_t bit)
    {
        sched_ = sched;
        sched_idx_ = index;
        sched_bit_ = bit;
    }

    /** Sends an item at cycle `now`; it arrives at now + latency. */
    void
    send(T item, Cycle now)
    {
        tenoc_assert(last_send_ == INVALID_CYCLE || now > last_send_,
                     "channel accepts at most one item per cycle");
        last_send_ = now;
        queue_.emplace_back(Entry{now + latency_, std::move(item)});
        if (sched_)
            sched_->schedule(now + latency_, sched_idx_, sched_bit_);
    }

    /** @return the next item if it has arrived by cycle `now`. */
    std::optional<T>
    receive(Cycle now)
    {
        if (queue_.empty() || queue_.front().arrival > now)
            return std::nullopt;
        T item = std::move(queue_.front().item);
        queue_.pop_front();
        return item;
    }

    /** Calls f(item) for every in-flight item, oldest first. */
    template <typename F>
    void
    forEachInFlight(F &&f) const
    {
        queue_.forEach([&](const Entry &e) { f(e.item); });
    }

    /** @return true if no items are in flight. */
    bool empty() const { return queue_.empty(); }

    /** Number of items in flight. */
    std::size_t inFlight() const { return queue_.size(); }

    /** Delivery cycle of the earliest in-flight item (the channel is
     *  FIFO with constant latency, so the front is the earliest);
     *  INVALID_CYCLE when empty. */
    Cycle
    earliestArrival() const
    {
        return queue_.empty() ? INVALID_CYCLE : queue_.front().arrival;
    }

  private:
    struct Entry
    {
        Cycle arrival;
        T item;
    };

    Cycle latency_;
    Cycle last_send_ = INVALID_CYCLE;
    RingQueue<Entry> queue_;
    ArrivalScheduler *sched_ = nullptr;
    unsigned sched_idx_ = 0;
    std::uint32_t sched_bit_ = 0;
};

/** Credit message: one freed buffer slot on a given VC. */
struct Credit
{
    unsigned vc = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_CHANNEL_HH
