/**
 * @file
 * SIMD probe kernels for the structure-of-arrays translation
 * structures (TLB sets, SpOT sets, walker PSC / nested TLB). Every
 * probed array keeps its tags in a contiguous uint64 lane padded to a
 * multiple of the AVX2 width, with kNoTag64 in invalid and padding
 * slots, so "find the way holding this tag" is a handful of vector
 * compares instead of a per-way branchy scan.
 *
 * The AVX2 kernel is compiled in on every x86-64 GCC/Clang build as a
 * target("avx2") function, so the rest of the build needs no -mavx2.
 * Which kernel runs is decided at run time:
 *  - the CPU: __builtin_cpu_supports("avx2") is checked once — a
 *    non-AVX2 host silently runs the scalar loop;
 *  - the one override: setForceScalar() (bench_io's --no-simd) pins
 *    the scalar loop for A/B measurements in one binary.
 *
 * The scalar and AVX2 kernels return the same lane for the same
 * input (the lowest matching index), so simulated statistics are
 * byte-identical either way; only wall clock moves.
 * tests/tlb/tlb_test.cc and the engine golden-equivalence suite pin
 * this.
 */

#ifndef CONTIG_BASE_SIMD_HH
#define CONTIG_BASE_SIMD_HH

#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CONTIG_SIMD_AVX2 1
#include <immintrin.h>
#else
#define CONTIG_SIMD_AVX2 0
#endif

namespace contig
{
namespace simd
{

/** Sentinel stored in invalid / padding tag lanes; never a real tag. */
inline constexpr std::uint64_t kNoTag64 = ~0ull;

/** Lane count of one AVX2 vector of 64-bit tags. */
inline constexpr unsigned kLanes64 = 4;

/** Round a way count up to the SIMD lane stride. */
constexpr unsigned
padLanes(unsigned ways)
{
    return (ways + kLanes64 - 1) / kLanes64 * kLanes64;
}

/** True when the AVX2 kernel is compiled in AND the CPU supports it. */
bool avx2Available();

/**
 * Process-wide scalar override (--no-simd). Affects structures built
 * afterwards; existing ones keep their probe mode.
 */
void setForceScalar(bool force);
bool forceScalar();

/** The probe mode new structures will use. */
inline bool
enabled()
{
    return avx2Available() && !forceScalar();
}

/** "avx2" or "scalar" — the RunInfo `xlat.simd` token. */
const char *modeName(bool use_simd);

/**
 * Lowest index i < n with lanes[i] == tag, or -1. `n` need not be a
 * lane multiple; the tail runs scalar.
 */
inline int
findTagScalar(const std::uint64_t *lanes, unsigned n, std::uint64_t tag)
{
    for (unsigned i = 0; i < n; ++i)
        if (lanes[i] == tag)
            return static_cast<int>(i);
    return -1;
}

#if CONTIG_SIMD_AVX2
__attribute__((target("avx2"))) inline int
findTagAvx2(const std::uint64_t *lanes, unsigned n, std::uint64_t tag)
{
    const __m256i needle = _mm256_set1_epi64x(
        static_cast<long long>(tag));
    unsigned i = 0;
    for (; i + kLanes64 <= n; i += kLanes64) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lanes + i));
        const int mask = _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, needle)));
        if (mask)
            return static_cast<int>(i) + __builtin_ctz(
                static_cast<unsigned>(mask));
    }
    for (; i < n; ++i)
        if (lanes[i] == tag)
            return static_cast<int>(i);
    return -1;
}
#endif

/**
 * The dispatching probe: lowest lane holding `tag`, or -1. Invalid
 * and padding lanes must hold kNoTag64 and `tag` must never equal it
 * — then a tag match alone implies a valid way and both kernels
 * agree on the answer.
 */
inline int
findTag(const std::uint64_t *lanes, unsigned n, std::uint64_t tag,
        bool use_simd)
{
#if CONTIG_SIMD_AVX2
    if (use_simd)
        return findTagAvx2(lanes, n, tag);
#else
    (void)use_simd;
#endif
    return findTagScalar(lanes, n, tag);
}

} // namespace simd
} // namespace contig

#endif // CONTIG_BASE_SIMD_HH
