#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "base/stats.hh"

using namespace contig;

TEST(Summary, Empty)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(Summary, Basic)
{
    Summary s;
    s.add(1.0);
    s.add(3.0);
    s.add(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(Summary, NegativeValues)
{
    Summary s;
    s.add(-5.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Percentiles, EmptyIsZero)
{
    Percentiles p;
    EXPECT_EQ(p.quantile(0.5), 0.0);
}

TEST(Percentiles, MedianAndTails)
{
    Percentiles p;
    for (int i = 1; i <= 101; ++i)
        p.add(i);
    EXPECT_DOUBLE_EQ(p.quantile(0.5), 51.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 101.0);
}

TEST(Percentiles, P99)
{
    Percentiles p;
    for (int i = 0; i < 1000; ++i)
        p.add(1.0);
    p.add(100.0);
    EXPECT_LT(p.quantile(0.98), 2.0);
    EXPECT_GT(p.quantile(0.9999), 50.0);
}

TEST(Percentiles, AddAfterQueryResorts)
{
    Percentiles p;
    p.add(10.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.5), 10.0);
    p.add(0.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 0.0);
}

TEST(Log2Histogram, Buckets)
{
    Log2Histogram h;
    h.add(1);  // bucket 0: [1,2)
    h.add(2);  // bucket 1: [2,4)
    h.add(3);  // bucket 1
    h.add(4);  // bucket 2: [4,8)
    h.add(1024); // bucket 10
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(10), 1u);
    EXPECT_EQ(h.totalWeight(), 5u);
}

TEST(Log2Histogram, Weighted)
{
    Log2Histogram h;
    h.add(8, 100);
    EXPECT_EQ(h.bucket(3), 100u);
    EXPECT_EQ(h.totalWeight(), 100u);
}

TEST(Log2Histogram, ZeroGoesToBucketZero)
{
    Log2Histogram h;
    h.add(0);
    EXPECT_EQ(h.bucket(0), 1u);
}

TEST(Log2Histogram, PercentileKnownAnswers)
{
    Log2Histogram h;
    h.add(1, 4);  // bucket 0: [0,2), weight 4
    h.add(2, 4);  // bucket 1: [2,4), weight 4
    h.add(4, 16); // bucket 2: [4,8), weight 16
    h.add(8, 16); // bucket 3: [8,16), weight 16
    // total weight 40; interpolation inside the crossing bucket:
    // p50 target 20 -> 12/16 into bucket 2 -> 4 + 0.75 * 4 = 7
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 7.0);
    // p90 target 36 -> 12/16 into bucket 3 -> 8 + 0.75 * 8 = 14
    EXPECT_DOUBLE_EQ(h.percentile(0.90), 14.0);
    // p10 target 4 -> the whole of bucket 0 -> its upper edge
    EXPECT_DOUBLE_EQ(h.percentile(0.10), 2.0);
    // q = 1 is the upper edge of the last occupied bucket
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 16.0);
    // q = 0 is the lower edge of the first occupied bucket
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
}

TEST(Log2Histogram, PercentileSingleValueAndClamping)
{
    Log2Histogram h;
    h.add(5); // bucket 2: [4,8)
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 6.0); // midpoint of [4,8)
    // Out-of-range q clamps instead of misindexing.
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
    EXPECT_DOUBLE_EQ(h.percentile(std::nan("")), h.percentile(0.0));
}

TEST(Log2Histogram, PercentileEmptyIsZero)
{
    Log2Histogram h;
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

TEST(CounterSet, IncrementAndGet)
{
    CounterSet c;
    EXPECT_EQ(c.get("missing"), 0u);
    c.inc("x");
    c.inc("x", 4);
    EXPECT_EQ(c.get("x"), 5u);
}

TEST(Geomean, Basic)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(geomean({5.0}), 5.0, 1e-9);
}

TEST(Percentiles, LinearInterpolationR7)
{
    Percentiles p;
    for (double v : {10.0, 20.0, 30.0, 40.0})
        p.add(v);
    // R-7: i = q * (n - 1), linear between closest ranks.
    EXPECT_DOUBLE_EQ(p.quantile(0.25), 17.5);
    EXPECT_DOUBLE_EQ(p.quantile(0.5), 25.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.75), 32.5);
    EXPECT_DOUBLE_EQ(p.quantile(1.0 / 3.0), 20.0);
}

TEST(Percentiles, OutOfRangeQuantileIsClamped)
{
    Percentiles p;
    p.add(5.0);
    p.add(15.0);
    EXPECT_DOUBLE_EQ(p.quantile(-0.5), 5.0);
    EXPECT_DOUBLE_EQ(p.quantile(2.0), 15.0);
    EXPECT_DOUBLE_EQ(p.quantile(std::nan("")), 5.0);
}

TEST(Percentiles, SingleSampleAnyQuantile)
{
    Percentiles p;
    p.add(42.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.37), 42.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 42.0);
}

namespace
{

/** R-7 on an explicitly sorted sample vector: the reference. */
double
sortedR7(const std::vector<double> &s, double q)
{
    if (s.empty())
        return 0.0;
    if (std::isnan(q) || q <= 0.0)
        return s.front();
    if (q >= 1.0)
        return s.back();
    const double idx = q * static_cast<double>(s.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const double frac = idx - static_cast<double>(lo);
    if (lo + 1 >= s.size())
        return s.back();
    return s[lo] * (1.0 - frac) + s[lo + 1] * frac;
}

} // namespace

TEST(Percentiles, MatchesSortedReference)
{
    // 200 K samples over 40 latency-like values with skewed counts,
    // plus 1 K values seen once each, fed in shuffled order.
    std::mt19937_64 rng(27);
    std::geometric_distribution<int> pick(0.12);
    std::vector<double> samples;
    for (int i = 0; i < 200000; ++i) {
        const int k = std::min(pick(rng), 39);
        samples.push_back(static_cast<double>(1000 + 137 * k) / 2.6);
    }
    for (int i = 0; i < 1000; ++i)
        samples.push_back(static_cast<double>(i) * 7.3 + 0.01);
    std::shuffle(samples.begin(), samples.end(), rng);

    const double qs[] = {-1.0, 0.0, 1e-6, 0.25, 0.5, 0.95, 0.99,
                         1.0 - 1e-6, 1.0, 2.0,
                         std::numeric_limits<double>::quiet_NaN()};
    Percentiles p;
    std::vector<double> fed;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        p.add(samples[i]);
        fed.push_back(samples[i]);
        if (i % 9973 != 0 && i + 1 != samples.size())
            continue;
        std::vector<double> sorted = fed;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(p.count(), sorted.size());
        for (double q : qs)
            EXPECT_EQ(p.quantile(q), sortedR7(sorted, q))
                << "after " << fed.size() << " samples, q " << q;
    }
}

TEST(Summary, Merge)
{
    Summary a, b;
    a.add(1.0);
    a.add(3.0);
    b.add(-2.0);
    b.add(10.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.min(), -2.0);
    EXPECT_DOUBLE_EQ(a.max(), 10.0);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);

    Summary empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 4u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 4u);
    EXPECT_DOUBLE_EQ(empty.min(), -2.0);
}

TEST(CounterSet, HeterogeneousLookup)
{
    CounterSet c;
    const std::string_view sv = "spot.mispredictions";
    c.inc(sv);
    c.inc(sv, 2);
    c.inc(std::string("spot.mispredictions"));
    EXPECT_EQ(c.get(sv), 4u);
    EXPECT_EQ(c.get("spot.mispredictions"), 4u);
    EXPECT_EQ(c.all().size(), 1u);
}
