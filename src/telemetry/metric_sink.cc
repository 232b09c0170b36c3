/**
 * @file
 * tenoc-metrics-v1 export.
 */

#include "telemetry/metric_sink.hh"

#include <functional>

namespace tenoc::telemetry
{

namespace
{

std::string
joinName(const std::string &base, const std::string &leaf)
{
    return base.empty() ? leaf : base + "." + leaf;
}

/**
 * Walks a StatGroup depth-first with the same naming rule as
 * StatGroup::dump, invoking `scalar` for every flat stat line dump
 * would print and `histogram` once per histogram (for bucket data).
 */
void
walk(const StatGroup &g, const std::string &prefix,
     const std::function<void(const std::string &, double)> &scalar,
     const std::function<void(const std::string &, const Histogram &)>
         &histogram)
{
    const std::string base = prefix.empty()
        ? g.name()
        : (g.name().empty() ? prefix : prefix + "." + g.name());
    for (const auto *c : g.counters())
        scalar(joinName(base, c->name()),
               static_cast<double>(c->value()));
    for (const auto *a : g.accumulators()) {
        scalar(joinName(base, a->name() + ".mean"), a->mean());
        scalar(joinName(base, a->name() + ".count"),
               static_cast<double>(a->count()));
        scalar(joinName(base, a->name() + ".min"), a->min());
        scalar(joinName(base, a->name() + ".max"), a->max());
        scalar(joinName(base, a->name() + ".sum"), a->sum());
    }
    for (const auto *h : g.histograms()) {
        scalar(joinName(base, h->name() + ".mean"), h->mean());
        scalar(joinName(base, h->name() + ".count"),
               static_cast<double>(h->count()));
        histogram(joinName(base, h->name()), *h);
    }
    for (const auto &v : g.values())
        scalar(joinName(base, v.name), v.fn());
    for (const auto *child : g.children())
        walk(*child, base, scalar, histogram);
}

} // namespace

JsonValue
metricsToJson(const StatGroup &root)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("schema", "tenoc-metrics-v1");
    JsonValue metrics = JsonValue::makeObject();
    JsonValue histograms = JsonValue::makeObject();
    walk(
        root, "",
        [&](const std::string &name, double v) {
            metrics.set(name, JsonValue(v));
        },
        [&](const std::string &name, const Histogram &h) {
            JsonValue hv = JsonValue::makeObject();
            hv.set("low", JsonValue(h.low()));
            hv.set("high", JsonValue(h.high()));
            hv.set("bucket_width", JsonValue(h.bucketWidth()));
            hv.set("count",
                   JsonValue(static_cast<double>(h.count())));
            hv.set("mean", JsonValue(h.mean()));
            hv.set("p50", JsonValue(h.percentile(0.5)));
            hv.set("p95", JsonValue(h.percentile(0.95)));
            hv.set("p99", JsonValue(h.percentile(0.99)));
            JsonValue counts = JsonValue::makeArray();
            for (auto b : h.buckets())
                counts.push(JsonValue(static_cast<double>(b)));
            hv.set("counts", std::move(counts));
            histograms.set(name, std::move(hv));
        });
    doc.set("metrics", std::move(metrics));
    doc.set("histograms", std::move(histograms));
    return doc;
}

} // namespace tenoc::telemetry
