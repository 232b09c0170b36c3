/**
 * @file
 * Per-interval time-series recorder driven by the interconnect clock.
 *
 * Components register probes; every `window` cycles the sampler
 * snapshots all of them into one row.  Two probe semantics:
 *
 *  - counter: the probe reads a monotonically non-decreasing total;
 *    the recorded value is the per-window delta (e.g. flits injected
 *    this window),
 *  - gauge: the recorded value is the instantaneous reading at the
 *    window boundary (e.g. buffer occupancy).
 *
 * Vector probes expand to one column per element (`name[i]`), which is
 * how per-router occupancy and per-link utilization become CSV heatmap
 * matrices: rows are time windows, columns are routers/links.
 *
 * The sampler is clock-domain agnostic: `tick(now)` takes the driving
 * domain's cycle count and emits one row per crossed window boundary,
 * so a caller whose clock jumps several windows between ticks still
 * gets a row per window (deltas land in the first crossed window and
 * gauges repeat their reading).
 */

#ifndef TENOC_TELEMETRY_INTERVAL_SAMPLER_HH
#define TENOC_TELEMETRY_INTERVAL_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace tenoc::telemetry
{

/** Interval time-series recorder (see file comment). */
class IntervalSampler
{
  public:
    using Probe = std::function<double()>;
    using VectorProbe = std::function<double(std::size_t)>;

    /** @param window sampling window length in driving-clock cycles */
    explicit IntervalSampler(Cycle window);

    Cycle window() const { return window_; }

    /** Registers a per-window-delta probe over a running total. */
    void addCounter(std::string name, Probe fn);
    /** Registers an instantaneous-reading probe. */
    void addGauge(std::string name, Probe fn);
    /** Registers `n` delta probes as columns `name[0..n)`. */
    void addCounterVector(std::string name, std::size_t n,
                          VectorProbe fn);
    /** Registers `n` gauge probes as columns `name[0..n)`. */
    void addGaugeVector(std::string name, std::size_t n,
                        VectorProbe fn);

    /**
     * Advances to `now` (driving-domain cycles); emits one row per
     * window boundary crossed since the last call.  Cheap when no
     * boundary is crossed (one comparison).
     */
    void
    tick(Cycle now)
    {
        if (now - window_start_ >= window_)
            advanceTo(now);
    }

    /** Flushes the final partial window (row end = `now`). */
    void finish(Cycle now);

    /** Column headers, in CSV order (excludes window/start/end). */
    const std::vector<std::string> &columns() const { return columns_; }
    std::size_t numRows() const { return rows_.size(); }
    /** Raw row data (columns in `columns()` order). */
    const std::vector<double> &row(std::size_t i) const
    {
        return rows_[i].values;
    }
    Cycle rowStart(std::size_t i) const { return rows_[i].start; }
    Cycle rowEnd(std::size_t i) const { return rows_[i].end; }

    /**
     * Writes the time series as CSV: a header
     * `window,start,end,<col>...` then one row per window.
     */
    void writeCsv(std::ostream &os) const;

  private:
    struct ProbeEntry
    {
        bool delta;      ///< counter (delta) vs gauge semantics
        Probe fn;
        double last = 0; ///< previous total, for deltas
    };
    struct Row
    {
        Cycle start;
        Cycle end;
        std::vector<double> values;
    };

    void advanceTo(Cycle now);
    void emitRow(Cycle start, Cycle end);

    Cycle window_;
    Cycle window_start_ = 0;
    std::vector<std::string> columns_;
    std::vector<ProbeEntry> probes_;
    std::vector<Row> rows_;
    bool finished_ = false;
};

} // namespace tenoc::telemetry

#endif // TENOC_TELEMETRY_INTERVAL_SAMPLER_HH
