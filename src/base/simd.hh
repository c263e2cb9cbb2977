/**
 * @file
 * The tag-probe kernel of the translation structures' tag arrays
 * (base/tag_sets.hh): "which lane holds this tag" over a contiguous
 * uint64 lane padded to a multiple of kLanes64, with kNoTag64 in
 * empty and padding slots, is a handful of vector compares instead of
 * a per-way branchy scan.
 *
 * The build fixes the kernel: SSE2, the x86-64 baseline, wherever
 * SSE2 is built (a plain inline function that every probe site
 * inlines, with no target attribute and no CPU check), and the scalar
 * loop only where it is not. Both return the lowest matching lane,
 * so simulated statistics never depend on the build's kernel;
 * tests/base/simd_test.cc pins the two kernels against each other.
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

/** Sentinel stored in empty / padding tag lanes; never a real tag. */
inline constexpr std::uint64_t kNoTag64 = ~0ull;

/** Lane stride of a tag array: one probe step of 4x64-bit tags. */
inline constexpr unsigned kLanes64 = 4;

/** Round a way count up to the SIMD lane stride. */
constexpr unsigned
padLanes(unsigned ways)
{
    return (ways + kLanes64 - 1) / kLanes64 * kLanes64;
}

/** True when the build's probe kernel is SSE2. */
constexpr bool
enabled()
{
    return CONTIG_SIMD_SSE2;
}

/** "sse2" or "scalar" — the RunInfo `xlat.simd` token. */
constexpr const char *
modeName(bool use_simd)
{
    return use_simd ? "sse2" : "scalar";
}

/**
 * Lowest index i < n with lanes[i] == tag, or -1. The kernel of a
 * build without SSE2, and the reference the SSE2 kernel is tested
 * against.
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
 * The build's probe: lowest lane holding `tag`, or -1. `lanes` holds
 * padLanes(n) slots; empty and padding slots must hold kNoTag64 and
 * `tag` must never equal it — then a tag match alone implies a real
 * way and both kernels agree on the answer.
 */
inline int
findTag(const std::uint64_t *lanes, unsigned n, std::uint64_t tag)
{
#if CONTIG_SIMD_SSE2
    return findTagSse2(lanes, n, tag);
#else
    return findTagScalar(lanes, n, tag);
#endif
}

} // namespace simd
} // namespace contig

#endif // CONTIG_BASE_SIMD_HH
