/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * experiments: a xoshiro256** core plus the distribution samplers the
 * synthetic workloads need (uniform, Zipf/power-law, geometric).
 */

#ifndef CONTIG_BASE_RNG_HH
#define CONTIG_BASE_RNG_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace contig
{

/**
 * Deterministic 64-bit PRNG (xoshiro256**). Seeded via SplitMix64 so a
 * single 64-bit seed fully determines the stream.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire's method. bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        contig_assert(bound > 0, "Rng::below bound must be positive");
        // Lemire's nearly-divisionless method.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < bound) {
            std::uint64_t t = -bound % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** True with the given probability. */
    bool chance(double p) { return uniform() < p; }

    /**
     * chance(p) on integers: for a raw draw x, `uniform() < p` is
     * exactly `(x >> 11) < threshold(p)`, because scaling both sides
     * by 2^53 does not round. p in [0, 1].
     */
    static constexpr std::uint64_t
    threshold(double p)
    {
        const double scaled = p * 0x1.0p53;
        const auto whole = static_cast<std::uint64_t>(scaled);
        return whole + (static_cast<double>(whole) < scaled); // ceil
    }

    /**
     * The next raw value, consumed only when `take` holds, without a
     * branch: the draw is taken ahead in a copy whose state a mask
     * select keeps or drops. Chunk generators use it for a draw that
     * only some mixture components consume.
     */
    std::uint64_t
    nextIf(bool take)
    {
        Rng ahead = *this;
        const std::uint64_t result = ahead.next();
        const std::uint64_t mask = -static_cast<std::uint64_t>(take);
        for (int i = 0; i < 4; ++i)
            s_[i] ^= (s_[i] ^ ahead.s_[i]) & mask;
        return result;
    }

    /**
     * Overwrite the raw xoshiro256** state (tests build generators
     * with a chosen next output this way).
     */
    void
    setState(const std::uint64_t in[4])
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = in[i];
    }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Zipf(N, s) sampler over {0, ..., n-1} using the rejection-inversion
 * method of Hormann & Derflinger, O(1) per sample. Used by the graph
 * and hash-join workload generators to model power-law access skew.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of items (ranks 0..n-1; rank 0 is hottest).
     * @param s Skew exponent, s >= 0 (s == 0 degenerates to uniform).
     */
    ZipfSampler(std::uint64_t n, double s);

    /** Draw one rank. */
    std::uint64_t sample(Rng &rng);

    std::uint64_t n() const { return n_; }
    double skew() const { return s_; }

  private:
    double h(double x) const;
    double hInv(double x) const;

    std::uint64_t n_;
    double s_;
    double hx0_;
    double hxm_;
    double invSMinusOne_;
};

} // namespace contig

#endif // CONTIG_BASE_RNG_HH
