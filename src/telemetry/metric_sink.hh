/**
 * @file
 * Structured exporter for the StatGroup registry.
 *
 * metricsToJson serializes a StatGroup hierarchy (counters,
 * accumulators, histograms with full bucket data, and lazy values) to
 * the one final-metrics schema, `tenoc-metrics-v1`: a JSON document
 * with a flat `metrics` map whose keys are exactly the dotted names
 * StatGroup::dump prints (plus extra accumulator min/max/sum detail),
 * and a `histograms` map carrying bucket edges and counts for
 * heatmaps / CDF plots.  TelemetryHub::writeOutputs writes it for
 * `--stats-json <path>` (see telemetry.hh).
 */

#ifndef TENOC_TELEMETRY_METRIC_SINK_HH
#define TENOC_TELEMETRY_METRIC_SINK_HH

#include "common/stats.hh"
#include "telemetry/json.hh"

namespace tenoc::telemetry
{

/** Builds the `tenoc-metrics-v1` document of the hierarchy rooted at
 *  `root`. */
JsonValue metricsToJson(const StatGroup &root);

} // namespace tenoc::telemetry

#endif // TENOC_TELEMETRY_METRIC_SINK_HH
