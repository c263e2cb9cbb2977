#include "base/stats.hh"

#include <algorithm>
#include <cmath>

namespace contig
{

void
Percentiles::add(double x)
{
    ++count_;
    auto it = std::lower_bound(
        runs_.begin(), runs_.end(), x,
        [](const Run &run, double v) { return run.value < v; });
    if (it == runs_.end() || it->value != x)
        it = runs_.insert(it, Run{x, 0});
    ++it->count;
}

double
Percentiles::quantile(double q) const
{
    if (runs_.empty())
        return 0.0;
    // Clamp out-of-range q (NaN included) instead of indexing out of
    // bounds.
    if (std::isnan(q) || q <= 0.0)
        return runs_.front().value;
    if (q >= 1.0)
        return runs_.back().value;
    const double idx = q * static_cast<double>(count_ - 1);
    const std::uint64_t lo = static_cast<std::uint64_t>(idx);
    const double frac = idx - static_cast<double>(lo);
    if (lo + 1 >= count_)
        return runs_.back().value;
    // The runs holding sorted ranks lo and lo + 1.
    std::size_t r = 0;
    std::uint64_t below = 0; // samples in runs before r
    while (below + runs_[r].count <= lo)
        below += runs_[r++].count;
    const double at_lo = runs_[r].value;
    const double at_hi =
        lo + 1 < below + runs_[r].count ? at_lo : runs_[r + 1].value;
    return at_lo * (1.0 - frac) + at_hi * frac;
}

void
Log2Histogram::add(std::uint64_t value, std::uint64_t weight)
{
    unsigned b = 0;
    while ((std::uint64_t{1} << (b + 1)) <= value && b < 63)
        ++b;
    if (buckets_.size() <= b)
        buckets_.resize(b + 1, 0);
    buckets_[b] += weight;
    total_ += weight;
}

std::uint64_t
Log2Histogram::bucket(unsigned i) const
{
    return i < buckets_.size() ? buckets_[i] : 0;
}

double
Log2Histogram::percentile(double q) const
{
    if (total_ == 0)
        return 0.0;
    if (std::isnan(q) || q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const double target = q * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        if (buckets_[b] == 0)
            continue;
        const double w = static_cast<double>(buckets_[b]);
        const double lo =
            b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << b);
        const double hi = static_cast<double>(std::uint64_t{1} << (b + 1));
        if (target <= cum + w) {
            const double frac = w > 0.0 ? (target - cum) / w : 0.0;
            return lo + (frac < 0.0 ? 0.0 : frac) * (hi - lo);
        }
        cum += w;
    }
    // q == 1 lands here: the upper edge of the last occupied bucket.
    for (std::size_t b = buckets_.size(); b-- > 0;)
        if (buckets_[b] != 0)
            return static_cast<double>(std::uint64_t{1} << (b + 1));
    return 0.0;
}

void
Log2Histogram::mergeFrom(const Log2Histogram &other)
{
    if (buckets_.size() < other.buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    total_ += other.total_;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += std::log(v);
    return std::exp(acc / values.size());
}

} // namespace contig
