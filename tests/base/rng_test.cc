#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "base/rng.hh"

using namespace contig;

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, KnownAnswers)
{
    // The first draws for a fixed seed. Every synthetic workload
    // stream, and so every golden, rests on these exact values.
    constexpr std::uint64_t kNext[8] = {
        0xef33f17055244b74ull, 0xe1f591112fb5051bull,
        0xd8ab05640214863aull, 0xf985e1f2fb897b03ull,
        0xaf87a5f7e6ce1408ull, 0x86f28e3a0746ff9eull,
        0x4e1acb1dbe288cacull, 0x6c13fd25a3155716ull};
    constexpr std::uint64_t kBelow1000[8] = {934, 882, 846, 974,
                                             685, 527, 305, 422};
    constexpr double kUniform[8] = {
        0x1.de67e2e0aa489p-1, 0x1.c3eb22225f6ap-1,
        0x1.b1560ac80429p-1,  0x1.f30bc3e5f712fp-1,
        0x1.5f0f4befcd9c2p-1, 0x1.0de51c740e8dfp-1,
        0x1.386b2c76f8a22p-2, 0x1.b04ff4968c554p-2};
    Rng a(0x5eed), b(0x5eed), c(0x5eed);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(a.next(), kNext[i]) << "next #" << i;
        EXPECT_EQ(b.below(1000), kBelow1000[i]) << "below #" << i;
        EXPECT_EQ(c.uniform(), kUniform[i]) << "uniform #" << i;
    }
}

namespace
{

/** Multiplicative inverse of an odd number modulo 2^64 (Newton). */
constexpr std::uint64_t
inverseOf(std::uint64_t a)
{
    std::uint64_t x = a; // correct to 3 bits; each step doubles them
    for (int i = 0; i < 5; ++i)
        x *= 2 - a * x;
    return x;
}

/** An Rng whose next() returns `raw`: xoshiro256** outputs
 *  rotl(s[1] * 5, 7) * 9, which is invertible in s[1]. */
Rng
yielding(std::uint64_t raw)
{
    const std::uint64_t r = raw * inverseOf(9);
    const std::uint64_t s1 = ((r >> 7) | (r << 57)) * inverseOf(5);
    const std::uint64_t state[4] = {0, s1, 0, 0};
    Rng rng;
    rng.setState(state);
    return rng;
}

/** Every probability the built-in workload generators draw against. */
constexpr double kGeneratorProbabilities[] = {
    0.48, 0.70, 0.96, 0.055, 0.09, // svm
    0.55, 0.80, 0.030,             // pagerank
    0.50, 0.020,                   // hashjoin
    0.018,                         // xsbench (0.55, 0.80 as pagerank)
    0.0005,                        // bt
};

} // namespace

TEST(Rng, YieldingProducesTheRequestedDraw)
{
    for (std::uint64_t raw : {0ull, 1ull, 0x7ffull, 0xdeadbeefcafef00dull,
                              ~0ull}) {
        Rng rng = yielding(raw);
        EXPECT_EQ(rng.next(), raw);
    }
}

TEST(Rng, ThresholdMatchesUniformAtTheBoundary)
{
    for (double p : kGeneratorProbabilities) {
        const std::uint64_t t = Rng::threshold(p);
        for (std::uint64_t x = t - 2; x <= t + 2; ++x) {
            // Low bits set: uniform() must ignore the 11 it drops.
            const std::uint64_t raw = (x << 11) | 0x7ff;
            Rng a = yielding(raw), b = yielding(raw);
            const bool by_int = (raw >> 11) < t;
            const auto at = static_cast<long long>(x - t);
            EXPECT_EQ(a.uniform() < p, by_int) << "p=" << p << " T" << at;
            EXPECT_EQ(b.chance(p), by_int) << "p=" << p << " T" << at;
        }
    }
}

TEST(Rng, ThresholdMatchesUniformOnRandomDraws)
{
    std::uint64_t thresholds[std::size(kGeneratorProbabilities)];
    for (std::size_t i = 0; i < std::size(kGeneratorProbabilities); ++i)
        thresholds[i] = Rng::threshold(kGeneratorProbabilities[i]);
    Rng a(99), b(99);
    std::uint64_t mismatches = 0;
    for (int n = 0; n < 1'000'000; ++n) {
        const double u = a.uniform();
        const std::uint64_t x = b.next() >> 11;
        for (std::size_t i = 0; i < std::size(kGeneratorProbabilities); ++i)
            mismatches += (u < kGeneratorProbabilities[i]) !=
                          (x < thresholds[i]);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Rng, ThresholdEndpoints)
{
    static_assert(Rng::threshold(0.0) == 0);
    static_assert(Rng::threshold(1.0) == 1ull << 53);
    // Not a multiple of 2^-53: rounds up (ceil(p * 2^53)).
    static_assert(Rng::threshold(0x1.8p-54) == 1);
}

TEST(Rng, NextIfConsumesTheDrawOnlyWhenTaken)
{
    Rng rng(5), ref(5);
    const std::uint64_t first = ref.next();
    EXPECT_EQ(rng.nextIf(false), first);
    EXPECT_EQ(rng.nextIf(true), first); // the untaken draw comes again
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(rng.next(), ref.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRoughlyUniform)
{
    Rng rng(13);
    const std::uint64_t buckets = 8;
    std::vector<int> hist(buckets, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++hist[rng.below(buckets)];
    for (auto c : hist)
        EXPECT_NEAR(c, n / static_cast<int>(buckets), n / 100);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Zipf, RanksWithinRange)
{
    Rng rng(23);
    ZipfSampler z(1000, 0.99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(rng), 1000u);
}

TEST(Zipf, SkewFavorsLowRanks)
{
    Rng rng(29);
    ZipfSampler z(10000, 1.1);
    int head = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        if (z.sample(rng) < 100)
            ++head;
    // With s=1.1 over 10k items, the top 1% of ranks should take a
    // large share of the draws (far more than the uniform 1%).
    EXPECT_GT(head, n / 4);
}

TEST(Zipf, NearZeroSkewIsRoughlyUniform)
{
    Rng rng(31);
    ZipfSampler z(100, 0.0);
    std::vector<int> hist(100, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++hist[z.sample(rng)];
    int mn = *std::min_element(hist.begin(), hist.end());
    int mx = *std::max_element(hist.begin(), hist.end());
    EXPECT_GT(mn, 0);
    EXPECT_LT(mx, 3 * n / 100);
}

TEST(Zipf, SingleItem)
{
    Rng rng(37);
    ZipfSampler z(1, 1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(z.sample(rng), 0u);
}
