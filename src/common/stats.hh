/**
 * @file
 * Lightweight statistics package in the spirit of gem5's Stats.
 *
 * Provides scalar counters, averaging accumulators, distributions
 * (histograms), and a registry (StatGroup) that can dump all registered
 * statistics as text.  Harmonic/arithmetic mean helpers used by the
 * paper's figures live here as free functions.
 */

#ifndef TENOC_COMMON_STATS_HH
#define TENOC_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace tenoc
{

/** Simple named event counter. */
class Counter
{
  public:
    Counter() = default;
    explicit Counter(std::string name) : name_(std::move(name)) {}

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
};

/** Running mean/min/max accumulator over double samples. */
class Accumulator
{
  public:
    Accumulator() = default;
    explicit Accumulator(std::string name) : name_(std::move(name)) {}

    /** Adds one sample. */
    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-bucket histogram over [low, high) with uniform bucket width;
 * samples outside the range land in saturating edge buckets.
 */
class Histogram
{
  public:
    Histogram() : Histogram("", 0.0, 1.0, 1) {}

    /**
     * @param name stat name
     * @param low inclusive lower bound of the tracked range
     * @param high exclusive upper bound
     * @param buckets number of uniform buckets (>= 1)
     */
    Histogram(std::string name, double low, double high,
              std::size_t buckets);

    void sample(double v, std::uint64_t weight = 1);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    /**
     * Percentile estimate from the bucket CDF: the upper edge of the
     * first bucket whose cumulative count reaches ceil(p * count).
     * p == 0 returns the lower edge of the first non-empty bucket
     * (the minimum's bucket), so percentile(0)..percentile(1) always
     * brackets the observed samples.  0 when empty.
     */
    double percentile(double p) const;
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    double bucketLow(std::size_t i) const;
    double low() const { return low_; }
    double high() const { return high_; }
    double bucketWidth() const { return width_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    double low_;
    double high_;
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * A named collection of statistics with hierarchical dump support.
 * Components own their stats and register pointers here; the group
 * never owns the stats.
 */
class StatGroup
{
  public:
    /** Lazily evaluated scalar (bridges plain struct fields and
     *  derived metrics into the registry without a Counter object). */
    using ValueFn = std::function<double()>;
    struct NamedValue
    {
        std::string name;
        ValueFn fn;
    };

    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    void add(const Counter *c) { counters_.push_back(c); }
    void add(const Accumulator *a) { accums_.push_back(a); }
    void add(const Histogram *h) { histograms_.push_back(h); }
    void addChild(const StatGroup *g) { children_.push_back(g); }
    /** Registers a lazily evaluated scalar under `name`. */
    void
    addValue(std::string name, ValueFn fn)
    {
        values_.push_back({std::move(name), std::move(fn)});
    }

    /** Writes "group.stat value" lines for all registered stats. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    const std::string &name() const { return name_; }

    // --- traversal (used by telemetry exporters) ---
    const std::vector<const Counter *> &counters() const
    {
        return counters_;
    }
    const std::vector<const Accumulator *> &accumulators() const
    {
        return accums_;
    }
    const std::vector<const Histogram *> &histograms() const
    {
        return histograms_;
    }
    const std::vector<NamedValue> &values() const { return values_; }
    const std::vector<const StatGroup *> &children() const
    {
        return children_;
    }

  private:
    std::string name_;
    std::vector<const Counter *> counters_;
    std::vector<const Accumulator *> accums_;
    std::vector<const Histogram *> histograms_;
    std::vector<NamedValue> values_;
    std::vector<const StatGroup *> children_;
};

/** @return harmonic mean of positive values (0 if empty or any <= 0). */
double harmonicMean(const std::vector<double> &values);

/** @return arithmetic mean (0 if empty). */
double arithmeticMean(const std::vector<double> &values);

/** @return geometric mean of positive values (0 if empty or any <= 0). */
double geometricMean(const std::vector<double> &values);

} // namespace tenoc

#endif // TENOC_COMMON_STATS_HH
