#include "base/simd.hh"

namespace contig
{
namespace simd
{

namespace
{

bool forceScalar_ = false;

} // namespace

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
    return use_simd ? "sse2" : "scalar";
}

} // namespace simd
} // namespace contig
