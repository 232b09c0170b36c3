/**
 * @file
 * Telemetry front door: configuration, CLI flag parsing, and the hub
 * that owns the optional sinks.
 *
 * A TelemetryHub bundles the three observability channels:
 *
 *  1. final-state metrics: a StatGroup hierarchy exported as
 *     `tenoc-metrics-v1` JSON (`--stats-json`),
 *  2. interval time-series: an IntervalSampler ticked by the
 *     interconnect clock (`--interval-csv`, window via `--interval`),
 *  3. flit-level event traces: a ChromeTraceSink behind a packet-id
 *     sampling rate (`--trace`, rate via `--trace-sample`).
 *
 * Components receive the hub through `Network::attachTelemetry` /
 * `Chip::attachTelemetry` and register probes / wire tracer pointers.
 * When a channel is not requested its accessor returns nullptr and the
 * instrumentation hooks reduce to a single pointer test (the null-sink
 * fast path), so an un-instrumented simulation pays nothing.
 */

#ifndef TENOC_TELEMETRY_TELEMETRY_HH
#define TENOC_TELEMETRY_TELEMETRY_HH

#include <memory>
#include <string>

#include "common/stats.hh"
#include "telemetry/interval_sampler.hh"
#include "telemetry/metric_sink.hh"
#include "telemetry/trace_sink.hh"

namespace tenoc::telemetry
{

/** Which sinks to create and where their output files go. */
struct TelemetryConfig
{
    std::string statsJsonPath;   ///< final metrics as JSON ("" = off)
    std::string intervalCsvPath; ///< interval time-series ("" = off)
    std::string tracePath;       ///< Chrome trace JSON ("" = off)
    Cycle intervalCycles = 1000; ///< sampling window (icnt cycles)
    std::uint64_t traceSampleEvery = 64; ///< packet-id sampling rate
    /** Canonical config hash (Config::canonicalHashHex()) echoed into
     *  the stats-JSON header and as interval-CSV trailing metadata so
     *  output files are traceable to the exact configuration that
     *  produced them ("" = omit). */
    std::string configHash;

    bool
    any() const
    {
        return !statsJsonPath.empty() || !intervalCsvPath.empty() ||
               !tracePath.empty();
    }
};

/**
 * Strips the telemetry flags from an argv vector and returns the
 * parsed configuration; unrecognized arguments are left in place (and
 * argc is updated) for the front end to read or reject.  Recognized
 * flags (both `--flag value` and `--flag=value`):
 *
 *   --stats-json PATH
 *   --interval-csv PATH  --interval CYCLES
 *   --trace PATH         --trace-sample N
 *
 * A flag with no value, or a CYCLES / N that is not a whole number
 * >= 1, is fatal (exit 1).
 */
TelemetryConfig parseTelemetryFlags(int &argc, char **argv);

/** Owns the sinks requested by a TelemetryConfig (see file comment). */
class TelemetryHub
{
  public:
    explicit TelemetryHub(const TelemetryConfig &config);
    ~TelemetryHub();

    const TelemetryConfig &config() const { return config_; }

    /** @return the interval sampler, or nullptr when not requested. */
    IntervalSampler *sampler() { return sampler_.get(); }

    /** @return the flit tracer, or nullptr when not requested. */
    ChromeTraceSink *tracer() { return tracer_.get(); }

    /** Forwards the driving clock to the sampler (hot path). */
    void
    tick(Cycle now)
    {
        if (sampler_)
            sampler_->tick(now);
    }

    /** Flushes the sampler's final partial window. */
    void finish(Cycle now);

    /**
     * Writes all requested output files.  `root` may be null when no
     * final-metrics export was requested.
     * @return true if every requested file was written.
     */
    bool writeOutputs(const StatGroup *root);

  private:
    TelemetryConfig config_;
    std::unique_ptr<IntervalSampler> sampler_;
    std::unique_ptr<ChromeTraceSink> tracer_;
};

} // namespace tenoc::telemetry

#endif // TENOC_TELEMETRY_TELEMETRY_HH
