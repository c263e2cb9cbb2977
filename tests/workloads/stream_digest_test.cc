#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hh"
#include "workloads/access_stream.hh"
#include "workloads/workloads.hh"

using namespace contig;

namespace
{

struct DigestCase
{
    const char *workload;
    std::uint64_t seed;
    std::uint64_t digest;
};

/**
 * Digests of the first 2 M accesses of each built-in workload's
 * stream at scale 0.01. At that length every streaming cursor wraps
 * its region at least once (pagerank's edge array, the slowest, after
 * about 1.5 M accesses), so the wrap arithmetic is covered too. A
 * generator rewrite must reproduce these exactly.
 */
constexpr DigestCase kCases[] = {
    {"svm", 1, 0x95bd489d2fb77751ull},
    {"svm", 2, 0xbc85cbcccd717fd5ull},
    {"pagerank", 1, 0xe695b1527b07f4ddull},
    {"pagerank", 2, 0x9a34dc3b6cc384edull},
    {"hashjoin", 1, 0x7ba3bc08c362051dull},
    {"hashjoin", 2, 0x119fb95b4f3d79edull},
    {"xsbench", 1, 0x7c4a7d484234f01dull},
    {"xsbench", 2, 0xdb92e767c926a1f5ull},
    {"bt", 1, 0xb1cf92d84bbd6a7dull},
    {"bt", 2, 0x76f7411a1d22ee6dull},
    {"tlbfriendly", 1, 0xde4dfdb3a9a1af25ull},
    {"tlbfriendly", 2, 0xde4dfdb3a9a1af25ull},
};

constexpr std::uint64_t kAccesses = 2'000'000;

/** FNV-1a over 64-bit words: any single changed word changes it. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 0x100000001b3ull;
}

} // namespace

class StreamDigestTest : public ::testing::TestWithParam<DigestCase>
{
};

TEST_P(StreamDigestTest, MatchesThePinnedSequence)
{
    const DigestCase &c = GetParam();
    NativeSystem sys(PolicyKind::Thp, 3);
    WorkloadConfig cfg;
    cfg.scale = 0.01;
    cfg.seed = c.seed;
    auto wl = makeWorkload(c.workload, cfg);
    Process &p = sys.kernel().createProcess(c.workload);
    wl->setup(p);

    // Addresses are taken relative to the first VMA, so the digest
    // pins the generator, not the address-space layout.
    const Addr origin = wl->vmas()[0]->start().value;
    AccessStream stream(*wl, kAccesses, c.seed);
    std::uint64_t h = 0xcbf29ce484222325ull;
    const MemAccess *chunk = nullptr;
    while (std::size_t n = stream.next(chunk)) {
        for (std::size_t i = 0; i < n; ++i) {
            h = mix(h, chunk[i].pc);
            h = mix(h, chunk[i].va.value - origin);
        }
    }
    EXPECT_EQ(stream.produced(), kAccesses);
    EXPECT_EQ(h, c.digest) << c.workload << " seed " << c.seed
                           << ": digest 0x" << std::hex << h;
    wl->teardown();
}

INSTANTIATE_TEST_SUITE_P(
    BuiltinWorkloads, StreamDigestTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<DigestCase> &info) {
        return std::string(info.param.workload) + "_seed" +
               std::to_string(info.param.seed);
    });
