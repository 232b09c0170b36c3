/**
 * @file
 * Flit-level event tracing in Chrome trace-event format.
 *
 * A ChromeTraceSink receives lifecycle events for *sampled* packets:
 * injection queueing at the source NI, per-hop VC allocation and
 * switch traversal at every router, and ejection at the destination
 * NI.  Sampling is by packet id (`id % sampleEvery == 0`) so soak
 * tests and long closed-loop runs stay fast and the trace file stays
 * loadable; hooks compile down to a null-pointer check when no sink
 * is attached.
 *
 * It buffers events in memory and writes a JSON array of Chrome
 * trace-event objects ({name, ph, ts, pid, tid, ...}) loadable
 * in chrome://tracing / Perfetto:
 *
 *  - pid = the router/node where the event happened,
 *  - tid = the packet id (one "thread" lane per traced packet),
 *  - ts/dur = interconnect cycles ("X" complete events span a flit's
 *    residency; "i" instants mark allocation decisions).
 */

#ifndef TENOC_TELEMETRY_TRACE_SINK_HH
#define TENOC_TELEMETRY_TRACE_SINK_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace tenoc::telemetry
{

/** In-memory Chrome trace-event recorder of sampled flit lifecycle
 *  events. */
class ChromeTraceSink
{
  public:
    /** @param sample_every trace packets whose id is a multiple of
     *         this (1 = every packet; must be >= 1) */
    explicit ChromeTraceSink(std::uint64_t sample_every = 1)
        : sample_every_(sample_every ? sample_every : 1)
    {}

    /** @return true if events for this packet should be recorded.
     *  Inline: this is the hot-path gate. */
    bool
    wants(std::uint64_t pkt_id) const
    {
        return pkt_id % sample_every_ == 0;
    }

    std::uint64_t sampleEvery() const { return sample_every_; }

    /** Records a duration ("X") event spanning [start, end]. */
    void complete(const char *name, std::uint64_t pid, std::uint64_t tid,
                  Cycle start, Cycle end);

    /** Records an instant ("i") event at `ts`. */
    void instant(const char *name, std::uint64_t pid, std::uint64_t tid,
                 Cycle ts);

    std::size_t numEvents() const { return events_.size(); }

    /** Writes the JSON array-of-events document. */
    void write(std::ostream &os) const;

  private:
    struct Event
    {
        std::string name;
        char ph;            ///< 'X' (complete) or 'i' (instant)
        std::uint64_t pid;
        std::uint64_t tid;
        Cycle ts;
        Cycle dur;          ///< 'X' only
    };
    std::uint64_t sample_every_;
    std::vector<Event> events_;
};

} // namespace tenoc::telemetry

#endif // TENOC_TELEMETRY_TRACE_SINK_HH
