#include "base/rng.hh"

#include <cmath>

#include "base/logging.hh"

namespace contig
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
}

std::uint64_t
Rng::between(std::uint64_t lo, std::uint64_t hi)
{
    contig_assert(lo <= hi, "Rng::between empty range");
    return lo + below(hi - lo + 1);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n_(n), s_(s)
{
    contig_assert(n > 0, "ZipfSampler needs at least one item");
    if (s_ < 1e-9)
        s_ = 1e-9; // avoid division by zero; ~uniform
    invSMinusOne_ = 1.0 / (1.0 - s_);
    hx0_ = h(0.5) - 1.0;
    hxm_ = h(static_cast<double>(n_) + 0.5);
}

double
ZipfSampler::h(double x) const
{
    if (std::fabs(s_ - 1.0) < 1e-9)
        return std::log(x);
    return std::pow(x, 1.0 - s_) * invSMinusOne_;
}

double
ZipfSampler::hInv(double x) const
{
    if (std::fabs(s_ - 1.0) < 1e-9)
        return std::exp(x);
    return std::pow(x * (1.0 - s_), invSMinusOne_);
}

std::uint64_t
ZipfSampler::sample(Rng &rng)
{
    // Rejection-inversion over the harmonic density.
    while (true) {
        double u = hx0_ + rng.uniform() * (hxm_ - hx0_);
        double x = hInv(u);
        std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n_)
            k = n_;
        // Acceptance test: exact for the tail, cheap for the head.
        if (k - x <= 0.5 ||
            u >= h(static_cast<double>(k) + 0.5) -
                     std::pow(static_cast<double>(k), -s_)) {
            return k - 1; // ranks are 0-based
        }
    }
}

} // namespace contig
