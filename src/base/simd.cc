#include "base/simd.hh"

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
    return forceScalar_;
}

const char *
modeName(bool use_simd)
{
    return use_simd ? "avx2" : "scalar";
}

} // namespace simd
} // namespace contig
