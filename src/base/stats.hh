/**
 * @file
 * Lightweight statistics primitives: named counters, scalar summaries
 * (mean/min/max), exact counted percentiles and log2-bucketed
 * histograms. Every subsystem exposes a Stats-like struct built from
 * these so benches and tests can interrogate behaviour.
 */

#ifndef CONTIG_BASE_STATS_HH
#define CONTIG_BASE_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace contig
{

/**
 * Scalar summary accumulator: count, sum, min, max and mean of a
 * stream of samples.
 */
class Summary
{
  public:
    void
    add(double x)
    {
        if (count_ == 0 || x < min_)
            min_ = x;
        if (count_ == 0 || x > max_)
            max_ = x;
        sum_ += x;
        ++count_;
    }

    /** Fold another summary's samples into this one. */
    void
    merge(const Summary &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (count_ == 0 || other.max_ > max_)
            max_ = other.max_;
        sum_ += other.sum_;
        count_ += other.count_;
    }

    /**
     * Rebuild a summary from the four fields it is made of (a summary
     * sent between processes); count 0 gives the empty summary.
     */
    static Summary
    fromParts(std::uint64_t count, double sum, double min, double max)
    {
        Summary s;
        if (count == 0)
            return s;
        s.count_ = count;
        s.sum_ = sum;
        s.min_ = min;
        s.max_ = max;
        return s;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    void reset() { *this = Summary{}; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Exact percentile tracker over a counted multiset: one (value, count)
 * run per distinct sample, kept in ascending order, so memory grows
 * with the number of distinct values rather than with the number of
 * samples (a kernel's fault latencies take a few dozen). add() is a
 * binary search over the runs, plus an insert for a new value. Samples
 * must not be NaN.
 */
class Percentiles
{
  public:
    void add(double x);

    /**
     * Value at quantile q using linear interpolation between closest
     * ranks (the "R-7" definition numpy/Excel default to): with n
     * sorted samples, quantile(q) = s[i] + frac * (s[i+1] - s[i])
     * where i = floor(q * (n-1)) and frac is the fractional part.
     * q is clamped into [0, 1]; NaN is treated as 0. Returns 0 if no
     * samples were added.
     */
    double quantile(double q) const;

    std::uint64_t count() const { return count_; }

  private:
    struct Run
    {
        double value;
        std::uint64_t count;
    };

    std::vector<Run> runs_;
    std::uint64_t count_ = 0;
};

/**
 * Power-of-two bucketed histogram over unsigned values: bucket i counts
 * samples in [2^i, 2^(i+1)). Used e.g. for the free-block size
 * distribution of Fig. 9.
 */
class Log2Histogram
{
  public:
    void add(std::uint64_t value, std::uint64_t weight = 1);

    /** Count (weighted) in bucket for values whose log2 floor is i. */
    std::uint64_t bucket(unsigned i) const;
    unsigned numBuckets() const { return buckets_.size(); }
    std::uint64_t totalWeight() const { return total_; }
    void reset() { buckets_.clear(); total_ = 0; }

    /**
     * Bucket-interpolated quantile estimate. With W = totalWeight(),
     * the target rank is q * W; walking buckets in order, the bucket b
     * where the cumulative weight crosses the target contributes
     * lo_b + frac * (hi_b - lo_b), where [lo_b, hi_b) is the bucket's
     * value span ([0, 2) for bucket 0, [2^b, 2^(b+1)) above) and frac
     * is the target's fractional position inside the bucket's weight.
     * Exact to within one bucket span; q is clamped into [0, 1] (NaN
     * treated as 0) and the empty histogram reports 0.
     */
    double percentile(double q) const;

    /** Add another histogram bucket-wise. */
    void mergeFrom(const Log2Histogram &other);

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
};

/**
 * A flat registry of named counters. Subsystems register deltas; the
 * experiment drivers snapshot and print them. Lookups are
 * heterogeneous (transparent comparator), so incrementing with a
 * string literal or std::string_view from a hot path allocates only
 * on the first increment of a new name.
 */
class CounterSet
{
  public:
    using Map = std::map<std::string, std::uint64_t, std::less<>>;

    void
    inc(std::string_view name, std::uint64_t by = 1)
    {
        auto it = counters_.find(name);
        if (it == counters_.end())
            counters_.emplace(std::string(name), by);
        else
            it->second += by;
    }

    std::uint64_t
    get(std::string_view name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    const Map &all() const { return counters_; }

    void reset() { counters_.clear(); }

  private:
    Map counters_;
};

/** Geometric mean of a set of positive values; 0 if empty. */
double geomean(const std::vector<double> &values);

} // namespace contig

#endif // CONTIG_BASE_STATS_HH
