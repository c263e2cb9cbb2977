#include "base/simd.hh"

#include <cstdlib>
#include <cstring>

namespace contig
{
namespace simd
{

namespace
{

bool forceScalar_ = false;

bool
detectAvx2()
{
#if CONTIG_SIMD_AVX2
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

/** CONTIG_SIMD=0 in the environment forces scalar before main(). */
bool
envForcesScalar()
{
    const char *env = std::getenv("CONTIG_SIMD");
    return env && std::strcmp(env, "0") == 0;
}

} // namespace

bool
avx2Available()
{
    static const bool avail = detectAvx2();
    return avail;
}

void
setForceScalar(bool force)
{
    forceScalar_ = force;
}

bool
forceScalar()
{
    static const bool env = envForcesScalar();
    return env || forceScalar_;
}

const char *
modeName(bool use_simd)
{
    return use_simd ? "avx2" : "scalar";
}

} // namespace simd
} // namespace contig
