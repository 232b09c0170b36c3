/**
 * @file
 * IntervalSampler implementation.
 */

#include "telemetry/interval_sampler.hh"

#include "common/log.hh"
#include "telemetry/json.hh"

namespace tenoc::telemetry
{

IntervalSampler::IntervalSampler(Cycle window) : window_(window)
{
    tenoc_assert(window >= 1, "sampling window must be >= 1 cycle");
}

void
IntervalSampler::addCounter(std::string name, Probe fn)
{
    columns_.push_back(std::move(name));
    probes_.push_back({true, std::move(fn), 0.0});
}

void
IntervalSampler::addGauge(std::string name, Probe fn)
{
    columns_.push_back(std::move(name));
    probes_.push_back({false, std::move(fn), 0.0});
}

void
IntervalSampler::addCounterVector(std::string name, std::size_t n,
                                  VectorProbe fn)
{
    for (std::size_t i = 0; i < n; ++i) {
        addCounter(name + "[" + std::to_string(i) + "]",
                   [fn, i] { return fn(i); });
    }
}

void
IntervalSampler::addGaugeVector(std::string name, std::size_t n,
                                VectorProbe fn)
{
    for (std::size_t i = 0; i < n; ++i) {
        addGauge(name + "[" + std::to_string(i) + "]",
                 [fn, i] { return fn(i); });
    }
}

void
IntervalSampler::emitRow(Cycle start, Cycle end)
{
    Row row;
    row.start = start;
    row.end = end;
    row.values.reserve(probes_.size());
    for (auto &p : probes_) {
        const double v = p.fn();
        if (p.delta) {
            row.values.push_back(v - p.last);
            p.last = v;
        } else {
            row.values.push_back(v);
        }
    }
    rows_.push_back(std::move(row));
}

void
IntervalSampler::advanceTo(Cycle now)
{
    while (now - window_start_ >= window_) {
        emitRow(window_start_, window_start_ + window_);
        window_start_ += window_;
    }
}

void
IntervalSampler::finish(Cycle now)
{
    if (finished_)
        return;
    finished_ = true;
    if (now > window_start_)
        advanceTo(now);
    // Partial final window (deltas since the last boundary).
    if (now > window_start_)
        emitRow(window_start_, now);
}

void
IntervalSampler::writeCsv(std::ostream &os) const
{
    os << "window,start,end";
    for (const auto &c : columns_)
        os << "," << c;
    os << "\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        os << i << "," << rows_[i].start << "," << rows_[i].end;
        for (double v : rows_[i].values) {
            os << ",";
            writeJsonNumber(os, v);
        }
        os << "\n";
    }
}

} // namespace tenoc::telemetry
