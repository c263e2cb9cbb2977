#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/experiment.hh"
#include "workloads/access_stream.hh"
#include "workloads/workloads.hh"

using namespace contig;

namespace
{

/** Small scale so every workload fits a quick test machine. */
WorkloadConfig
quick(std::uint64_t seed = 5)
{
    WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.seed = seed;
    return cfg;
}

} // namespace

class WorkloadParamTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadParamTest, SetupTouchesDeclaredFootprint)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload(GetParam(), quick());
    Process &p = sys.kernel().createProcess(GetParam());
    wl->setup(p);
    EXPECT_EQ(p.touchedPages(), wl->footprintBytes() >> kPageShift);
    EXPECT_GE(wl->reservedBytes(), wl->footprintBytes());
    wl->teardown();
}

TEST_P(WorkloadParamTest, AccessesStayInsideTouchedMemory)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload(GetParam(), quick());
    Process &p = sys.kernel().createProcess(GetParam());
    wl->setup(p);
    Rng rng(17);
    for (int i = 0; i < 20000; ++i) {
        MemAccess a = wl->nextAccess(rng);
        auto m = p.pageTable().lookup(a.va.pageNumber());
        ASSERT_TRUE(m && m->valid())
            << GetParam() << " access outside mapped memory at 0x"
            << std::hex << a.va.value;
    }
    wl->teardown();
}

TEST_P(WorkloadParamTest, StreamsAreDeterministicPerSeed)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto w1 = makeWorkload(GetParam(), quick(42));
    auto w2 = makeWorkload(GetParam(), quick(42));
    Process &p1 = sys.kernel().createProcess("a");
    Process &p2 = sys.kernel().createProcess("b");
    w1->setup(p1);
    w2->setup(p2);
    Rng r1(7), r2(7);
    for (int i = 0; i < 1000; ++i) {
        MemAccess a = w1->nextAccess(r1);
        MemAccess b = w2->nextAccess(r2);
        EXPECT_EQ(a.pc, b.pc);
        // Addresses differ by the VMA base offset only; compare the
        // offsets within the processes' first VMAs via page distance.
        EXPECT_EQ(a.va.value - w1->vmas()[0]->start().value,
                  b.va.value - w2->vmas()[0]->start().value)
            << "diverged at access " << i;
        if (::testing::Test::HasFailure())
            break;
    }
    w1->teardown();
    w2->teardown();
}

TEST_P(WorkloadParamTest, UsesMultiplePcs)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload(GetParam(), quick());
    Process &p = sys.kernel().createProcess(GetParam());
    wl->setup(p);
    Rng rng(23);
    std::set<Addr> pcs;
    for (int i = 0; i < 5000; ++i)
        pcs.insert(wl->nextAccess(rng).pc);
    // The single-stream control uses one PC; real workloads several.
    const std::size_t expected = GetParam() == "tlbfriendly" ? 1 : 2;
    EXPECT_GE(pcs.size(), expected) << GetParam();
    wl->teardown();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadParamTest,
    ::testing::Values("svm", "pagerank", "hashjoin", "xsbench", "bt",
                      "tlbfriendly"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

class AccessStreamChunkTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>>
{
};

TEST_P(AccessStreamChunkTest, ChunksMatchTheUnchunkedSequence)
{
    // Chunk boundaries must never change what is generated: the
    // stream is element-wise identical to a one-access-per-call
    // stream, so whatever a chunk generator keeps in locals must be
    // stored back exactly. The total leaves a short final chunk
    // (20000 % 64 = 32, 20000 % 4096 = 3616).
    const auto &[name, chunk_accesses] = GetParam();
    NativeSystem sys(PolicyKind::Thp, 3);
    auto w1 = makeWorkload(name, quick(42));
    auto w2 = makeWorkload(name, quick(42));
    Process &p1 = sys.kernel().createProcess("a");
    Process &p2 = sys.kernel().createProcess("b");
    w1->setup(p1);
    w2->setup(p2);

    constexpr std::uint64_t kTotal = 20000;
    AccessStream ref(*w1, kTotal, 9, 1);
    AccessStream stream(*w2, kTotal, 9, chunk_accesses);
    EXPECT_EQ(stream.chunkAccesses(), chunk_accesses);

    std::uint64_t i = 0, chunks = 0;
    const MemAccess *chunk = nullptr;
    const MemAccess *one = nullptr;
    while (std::size_t n = stream.next(chunk)) {
        ++chunks;
        EXPECT_TRUE(n == chunk_accesses || stream.done())
            << "short mid-chunk";
        for (std::size_t j = 0; j < n; ++j, ++i) {
            ASSERT_EQ(ref.next(one), 1u);
            EXPECT_EQ(one->pc, chunk[j].pc) << "access " << i;
            EXPECT_EQ(one->va.value - w1->vmas()[0]->start().value,
                      chunk[j].va.value - w2->vmas()[0]->start().value)
                << "access " << i;
            if (::testing::Test::HasFailure())
                break;
        }
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_EQ(i, kTotal);
    EXPECT_EQ(chunks, (kTotal + chunk_accesses - 1) / chunk_accesses);
    EXPECT_EQ(stream.produced(), kTotal);
    EXPECT_TRUE(stream.done());
    EXPECT_EQ(stream.next(chunk), 0u);
    w1->teardown();
    w2->teardown();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, AccessStreamChunkTest,
    ::testing::Combine(::testing::Values("svm", "pagerank", "hashjoin",
                                         "xsbench", "bt", "tlbfriendly"),
                       ::testing::Values<std::uint64_t>(1, 64, 4096)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, std::uint64_t>> &info) {
        return std::get<0>(info.param) + "_chunk" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Workloads, FactoryRejectsUnknown)
{
    EXPECT_DEATH((void)makeWorkload("nonsense", quick()), "unknown");
}

TEST(Workloads, PaperListHasFive)
{
    EXPECT_EQ(paperWorkloads().size(), 5u);
}

TEST(Workloads, InputFileReusePersistsCache)
{
    NativeSystem sys(PolicyKind::Ca, 3);
    auto w1 = makeWorkload("pagerank", quick());
    Process &p1 = sys.kernel().createProcess("r1");
    w1->setup(p1);
    ASSERT_TRUE(w1->inputFileId());
    const std::uint32_t file_id = *w1->inputFileId();
    File &f = sys.kernel().pageCache().file(file_id);
    const std::uint64_t cached = f.cachedPages();
    EXPECT_GT(cached, 0u);
    w1->teardown();
    sys.kernel().exitProcess(p1);

    // Second run against the same file: no new cache fills.
    auto w2 = makeWorkload("pagerank", quick());
    w2->setInputFile(file_id);
    Process &p2 = sys.kernel().createProcess("r2");
    w2->setup(p2);
    EXPECT_EQ(f.cachedPages(), cached);
    w2->teardown();
}

TEST(Hog, PinsRequestedFraction)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto &pm = sys.kernel().physMem();
    const std::uint64_t free0 = pm.freePages();
    Rng rng(3);
    hogMemory(sys.kernel(), 0.25, rng);
    const double pinned =
        static_cast<double>(free0 - pm.freePages()) / pm.totalFrames();
    EXPECT_NEAR(pinned, 0.25, 0.02);
}

TEST(Hog, FreeMemoryStaysCoarse)
{
    // The hog must leave plenty of free huge pages (it fragments at
    // >2 MiB granularity, like the paper's).
    NativeSystem sys(PolicyKind::Thp, 3);
    Rng rng(3);
    hogMemory(sys.kernel(), 0.5, rng);
    std::uint64_t huge_free = 0;
    for (unsigned n = 0; n < sys.kernel().physMem().numNodes(); ++n) {
        const auto &buddy = sys.kernel().physMem().zone(n).buddy();
        for (unsigned o = kHugeOrder; o <= buddy.maxOrder(); ++o)
            huge_free += buddy.freeBlocks(o) * pagesInOrder(o);
    }
    // At least half of the remaining free memory is still huge-page
    // allocatable.
    EXPECT_GT(huge_free, sys.kernel().physMem().freePages() / 2);
}

TEST(Hog, ExitReleasesEverything)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto &k = sys.kernel();
    const std::uint64_t free0 = k.physMem().freePages();
    Rng rng(3);
    Process &hog = hogMemory(k, 0.3, rng);
    k.exitProcess(hog);
    // Only the kernel metadata pool (page-table frames) stays taken.
    EXPECT_EQ(k.physMem().freePages(), free0 - k.kernelPoolPages());
}

TEST(Churn, PinsIslandsOnStockMachines)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    const std::uint64_t free0 = sys.kernel().physMem().freePages();
    systemChurn(sys.kernel(), 32, 99);
    EXPECT_EQ(free0 - sys.kernel().physMem().freePages(),
              32 * kReadaheadPages);
}

TEST(Churn, CaMachinePacksThePins)
{
    NativeSystem sys(PolicyKind::Ca, 3);
    systemChurn(sys.kernel(), 32, 99);
    // All churn pages must form one contiguous physical run.
    File &log = sys.kernel().pageCache().file(0);
    Pfn first = log.frameFor(0);
    for (std::uint64_t p = 1; p < log.sizePages(); ++p) {
        if (!log.isCached(p))
            break;
        EXPECT_EQ(log.frameFor(p), first + p);
    }
}
