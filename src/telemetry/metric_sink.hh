/**
 * @file
 * Structured exporter for the StatGroup registry.
 *
 * JsonMetricSink serializes a StatGroup hierarchy (counters,
 * accumulators, histograms with full bucket data, and lazy values) to
 * the one final-metrics schema, `tenoc-metrics-v1`: a JSON document
 * with a flat `metrics` map whose keys are exactly the dotted names
 * StatGroup::dump prints (plus extra accumulator min/max/sum detail),
 * and a `histograms` map carrying bucket edges and counts for
 * heatmaps / CDF plots.
 *
 * Every bench binary gains `--stats-json <path>` on top of its text
 * output through this sink (see telemetry.hh).
 */

#ifndef TENOC_TELEMETRY_METRIC_SINK_HH
#define TENOC_TELEMETRY_METRIC_SINK_HH

#include <ostream>
#include <string>

#include "common/stats.hh"
#include "telemetry/json.hh"

namespace tenoc::telemetry
{

/** JSON exporter (schema `tenoc-metrics-v1`). */
class JsonMetricSink
{
  public:
    /** Writes the whole hierarchy rooted at `root`. */
    void write(const StatGroup &root, std::ostream &os);

    /** Builds the document without serializing (used by tests and by
     *  callers that embed metrics in a larger document). */
    static JsonValue toJson(const StatGroup &root);
};

/**
 * Writes `root` to `path` as a `tenoc-metrics-v1` JSON document.
 * @return true on success (false: could not open the file).
 */
bool writeMetricsFile(const StatGroup &root, const std::string &path);

} // namespace tenoc::telemetry

#endif // TENOC_TELEMETRY_METRIC_SINK_HH
