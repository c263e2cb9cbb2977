/**
 * @file
 * SIMD probe kernels for the structure-of-arrays translation
 * structures (TLB sets, SpOT sets, walker PSC / nested TLB). Every
 * probed array keeps its tags in a contiguous uint64 lane padded to a
 * multiple of kLanes64, with kNoTag64 in invalid and padding slots,
 * so "find the way holding this tag" is a handful of vector compares
 * instead of a per-way branchy scan.
 *
 * The vector kernel is SSE2, the x86-64 baseline: a plain inline
 * function that every probe site inlines, with no target attribute
 * and no CPU check. Which kernel runs:
 *  - the build: without SSE2 (a non-x86 host) only the scalar loop
 *    exists;
 *  - the one override: setForceScalar() (bench_io's --no-simd) pins
 *    the scalar loop for A/B measurements in one binary.
 *
 * The scalar and SSE2 kernels return the same lane for the same
 * input (the lowest matching index), so simulated statistics are
 * byte-identical either way; only wall clock moves.
 * tests/tlb/tlb_test.cc and the engine golden-equivalence suite pin
 * this.
 */

#ifndef CONTIG_BASE_SIMD_HH
#define CONTIG_BASE_SIMD_HH

#include <cstdint>

#if defined(__SSE2__)
#define CONTIG_SIMD_SSE2 1
#include <emmintrin.h>
#else
#define CONTIG_SIMD_SSE2 0
#endif

namespace contig
{
namespace simd
{

/** Sentinel stored in invalid / padding tag lanes; never a real tag. */
inline constexpr std::uint64_t kNoTag64 = ~0ull;

/** Lane stride of a tag array: one probe step of 4x64-bit tags. */
inline constexpr unsigned kLanes64 = 4;

/** Round a way count up to the SIMD lane stride. */
constexpr unsigned
padLanes(unsigned ways)
{
    return (ways + kLanes64 - 1) / kLanes64 * kLanes64;
}

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
    return CONTIG_SIMD_SSE2 && !forceScalar();
}

/** "sse2" or "scalar" — the RunInfo `xlat.simd` token. */
const char *modeName(bool use_simd);

/**
 * Lowest index i < n with lanes[i] == tag, or -1. The --no-simd
 * reference and the only kernel without SSE2.
 */
inline int
findTagScalar(const std::uint64_t *lanes, unsigned n, std::uint64_t tag)
{
    for (unsigned i = 0; i < n; ++i)
        if (lanes[i] == tag)
            return static_cast<int>(i);
    return -1;
}

#if CONTIG_SIMD_SSE2
/**
 * The SSE2 kernel: kLanes64 tags per step. SSE2 has no 64-bit
 * compare, so a lane matches when both of its 32-bit halves do (the
 * half-swapping shuffle ANDs each half with its partner). Reads
 * padLanes(n) lanes: the slots past n must hold kNoTag64, which the
 * padded layout guarantees, so they never match. The first step is
 * peeled: a set of at most kLanes64 ways is one straight-line probe.
 */
inline int
findTagSse2(const std::uint64_t *lanes, unsigned n, std::uint64_t tag)
{
    const __m128i needle = _mm_set1_epi64x(static_cast<long long>(tag));
    const auto pair = [&needle](const std::uint64_t *p) {
        const __m128i eq = _mm_cmpeq_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)), needle);
        return _mm_movemask_pd(_mm_castsi128_pd(_mm_and_si128(
            eq, _mm_shuffle_epi32(eq, _MM_SHUFFLE(2, 3, 0, 1)))));
    };
    const auto step = [&pair](const std::uint64_t *p) {
        return static_cast<unsigned>(pair(p) | pair(p + 2) << 2);
    };
    unsigned i = 0;
    unsigned mask = step(lanes);
    while (mask == 0) {
        i += kLanes64;
        if (i >= n)
            return -1;
        mask = step(lanes + i);
    }
    return static_cast<int>(i + __builtin_ctz(mask));
}
#endif

/**
 * The dispatching probe: lowest lane holding `tag`, or -1. `lanes`
 * holds padLanes(n) slots; invalid and padding slots must hold
 * kNoTag64 and `tag` must never equal it — then a tag match alone
 * implies a valid way and both kernels agree on the answer.
 */
inline int
findTag(const std::uint64_t *lanes, unsigned n, std::uint64_t tag,
        bool use_simd)
{
#if CONTIG_SIMD_SSE2
    if (use_simd)
        return findTagSse2(lanes, n, tag);
#else
    (void)use_simd;
#endif
    return findTagScalar(lanes, n, tag);
}

} // namespace simd
} // namespace contig

#endif // CONTIG_BASE_SIMD_HH
