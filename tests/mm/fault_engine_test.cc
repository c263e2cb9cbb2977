/**
 * @file
 * FaultEngine tests: the PageTable batch primitives, and the
 * golden-equivalence property — for every policy, with and without
 * THP, sorted and scrambled touch orders, a kernel driven by spans
 * (touchRange(), multi-page readFile()) must produce byte-identical
 * placements, fault statistics and policy fallback counts to a
 * kernel of the same config driven by one touch() or one one-page
 * readFile() per page.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "core/experiment.hh"
#include "mm/kernel.hh"
#include "mm/page_cache.hh"
#include "mm/page_table.hh"

using namespace contig;

// ---------------------------------------------------------------------------
// PageTable batch primitives.

TEST(PageTable, FindMappedInEmpty)
{
    PageTable pt;
    EXPECT_EQ(pt.findMappedIn(0, 4096), 4096u);
}

TEST(PageTable, FindMappedInSkipsToLeaf)
{
    PageTable pt;
    pt.map(1000, 7, 0);
    pt.map(512 * 512, 1024, kHugeOrder);
    EXPECT_EQ(pt.findMappedIn(0, 4096), 1000u);
    EXPECT_EQ(pt.findMappedIn(1001, 512 * 512 + 5), 512u * 512);
    // A start inside a huge leaf reports that very vpn.
    EXPECT_EQ(pt.findMappedIn(512 * 512 + 3, 512 * 513), 512u * 512 + 3);
    EXPECT_EQ(pt.findMappedIn(1001, 2000), 2000u);
}

TEST(PageTable, ForEachLeafInClipsRange)
{
    PageTable pt;
    pt.map(10, 100, 0);
    pt.map(20, 200, 0);
    pt.map(30, 300, 0);
    std::vector<Vpn> seen;
    pt.forEachLeafIn(15, 30, [&](Vpn vpn, const Mapping &) {
        seen.push_back(vpn);
    });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 20u);
}

TEST(PageTable, RunMapperMatchesPlainMap)
{
    PageTable a;
    PageTable b;
    PageTable::RunMapper rm(b);
    // Two runs crossing an L1-node boundary (512 entries per node).
    for (Vpn v = 500; v < 530; ++v) {
        a.map(v, 9000 + v, 0, /*writable=*/true, /*cow=*/false);
        rm.map(v, 9000 + v, true, false);
    }
    for (Vpn v = 5000; v < 5010; ++v) {
        a.map(v, 9000 + v, 0, false, true);
        rm.map(v, 9000 + v, false, true);
    }
    EXPECT_EQ(a.stats().maps, b.stats().maps);
    EXPECT_EQ(a.stats().mappedBasePages, b.stats().mappedBasePages);
    for (Vpn v = 500; v < 530; ++v) {
        auto ma = a.lookup(v);
        auto mb = b.lookup(v);
        ASSERT_TRUE(ma && mb);
        EXPECT_EQ(ma->pfn, mb->pfn);
        EXPECT_EQ(ma->writable, mb->writable);
        EXPECT_EQ(ma->cow, mb->cow);
    }
}

TEST(PageTable, RunMapperSurvivesNodeFree)
{
    // A huge leaf over an emptied L1 node frees that node, which the
    // mapper cached with its first install; its next install must
    // descend again instead of writing into the freed node.
    PageTable pt;
    PageTable::RunMapper rm(pt);
    const Vpn block = 3 * kPtFanout;
    rm.map(block + 1, 77, true, false);
    pt.unmap(block + 1, 0);
    pt.map(block, 1024, kHugeOrder);
    pt.unmap(block, kHugeOrder);
    rm.map(block + 2, 78, true, false);
    auto m = pt.lookup(block + 2);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pfn, 78u);
    EXPECT_EQ(m->order, 0u);
}

TEST(PageTable, RunMapperFiresUpdateHook)
{
    PageTable pt;
    std::uint64_t hooked = 0;
    pt.setUpdateHook([&](Vpn, const Mapping &, bool) { ++hooked; });
    PageTable::RunMapper rm(pt);
    rm.map(1, 11, true, false);
    rm.map(2, 12, true, false);
    EXPECT_EQ(hooked, 2u);
}

// ---------------------------------------------------------------------------
// Golden equivalence: span vs per-page resolution.

namespace
{

using Leaf = std::tuple<Vpn, Pfn, unsigned, bool, bool, bool>;

/** Everything observable the two arms must agree on. */
struct Snapshot
{
    std::vector<Leaf> parentLeaves;
    std::vector<Leaf> childLeaves;
    std::uint64_t faults = 0;
    std::uint64_t hugeFaults = 0;
    std::uint64_t baseFaults = 0;
    std::uint64_t cowFaults = 0;
    std::uint64_t fileFaults = 0;
    Cycles totalCycles = 0;
    std::uint64_t latencySamples = 0;
    std::uint64_t parentTouched = 0;
    std::uint64_t parentAllocated = 0;
    std::uint64_t noHugeBlock = 0;
    std::uint64_t oom = 0;
    std::uint64_t directReclaims = 0;
    std::vector<Pfn> fileFrames;
};

std::vector<Leaf>
collectLeaves(const Process &proc)
{
    std::vector<Leaf> out;
    proc.pageTable().forEachLeaf([&](Vpn vpn, const Mapping &m) {
        out.emplace_back(vpn, m.pfn, m.order, m.writable, m.cow,
                         m.contigBit);
    });
    return out;
}

/** Deterministic Fisher-Yates (no std::random in tests). */
void
scramble(std::vector<std::uint64_t> &v)
{
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(v[i], v[s % (i + 1)]);
    }
}

/**
 * How an arm feeds its kernel: by spans (touchRange(), one multi-page
 * readFile()) or page by page (one touch(), one one-page readFile()
 * per page).
 */
struct Arm
{
    bool spans = true;

    void
    touch(Process &p, Gva start, std::uint64_t bytes,
          Access access = Access::Write) const
    {
        if (spans) {
            p.touchRange(start, bytes, access);
            return;
        }
        for (std::uint64_t off = 0; off < bytes; off += kPageSize)
            p.touch(start + off, access);
    }

    void
    read(Kernel &k, File &f, std::uint64_t first, std::uint64_t n) const
    {
        if (spans) {
            k.readFile(f, first, n);
            return;
        }
        for (std::uint64_t pg = first; pg < first + n; ++pg)
            k.readFile(f, pg, 1);
    }
};

/** Everything the Snapshot records, read off a finished run. */
Snapshot
capture(Kernel &k, const Process &p, const Process *child, const File &f)
{
    Snapshot snap;
    snap.parentLeaves = collectLeaves(p);
    if (child)
        snap.childLeaves = collectLeaves(*child);
    const FaultStats &fs = k.faultStats();
    snap.faults = fs.faults;
    snap.hugeFaults = fs.hugeFaults;
    snap.baseFaults = fs.baseFaults;
    snap.cowFaults = fs.cowFaults;
    snap.fileFaults = fs.fileFaults;
    snap.totalCycles = fs.totalCycles;
    snap.latencySamples = fs.latencyUs.count();
    snap.parentTouched = p.touchedPages();
    snap.parentAllocated = p.allocatedPages();
    snap.noHugeBlock = k.policy().allocFailCounts().noHugeBlock;
    snap.oom = k.policy().allocFailCounts().oom;
    snap.directReclaims = k.counters().get("reclaim.direct");
    for (std::uint64_t pg = 0; pg < f.sizePages(); ++pg)
        snap.fileFrames.push_back(f.frameFor(pg));
    return snap;
}

/**
 * One fixed workload hitting every pipeline path: partial then full
 * anonymous population (gap/mapped alternation), a sub-huge VMA
 * (order-0 batching), fork + COW writes on both sides, page-cache
 * reads with overlapping windows, and a file mapping read through
 * touchRange.
 */
Snapshot
runScenario(Kernel &k, const Arm &arm, bool scrambled)
{
    constexpr std::uint64_t kSpanPages = 64;
    Process &p = k.createProcess("golden");
    Vma &anon = p.mmap(4 * kHugeSize);

    std::vector<std::uint64_t> spans(anon.pages() / kSpanPages);
    std::iota(spans.begin(), spans.end(), 0);
    if (scrambled)
        scramble(spans);

    // First pass: every other span, leaving holes.
    for (std::uint64_t s : spans) {
        if (s % 2 == 0)
            arm.touch(p, anon.start() + s * kSpanPages * kPageSize,
                      kSpanPages * kPageSize);
    }
    // Second pass: the whole VMA (alternating mapped/unmapped gaps).
    arm.touch(p, anon.start(), anon.bytes());

    // A VMA too small for huge faults: pure order-0 chunks.
    Vma &small = p.mmap(100 * kPageSize);
    arm.touch(p, small.start(), small.bytes());

    // fork + COW traffic on both sides of the share.
    Process &child = p.fork("golden-child");
    arm.touch(child, anon.start(), kHugeSize + 16 * kPageSize);
    arm.touch(p, anon.start() + 2 * kHugeSize, 32 * kPageSize);

    // Page cache: overlapping read windows, then a mapped file span.
    File &f = k.createFile(600);
    arm.read(k, f, 3, 40);
    arm.read(k, f, 10, 100);
    Vma &fv = p.mmapFile(f.id(), 128 * kPageSize, 200);
    arm.touch(p, fv.start(), fv.bytes(), Access::Read);

    return capture(k, p, &child, f);
}

/**
 * Memory runs out mid-span: page cache fills about 3/4 of the node,
 * then an anonymous VMA half the node's size is touched. With THP off
 * an order-0 chunk's placement fails part-way and the slow path drops
 * the cache (one "reclaim.direct") before the chunk resumes.
 */
Snapshot
runOomScenario(Kernel &k, const Arm &arm)
{
    const std::uint64_t node_pages = k.config().phys.bytesPerNode / kPageSize;
    File &f = k.createFile(node_pages * 3 / 4);
    arm.read(k, f, 0, f.sizePages());
    Process &p = k.createProcess("golden-oom");
    Vma &anon = p.mmap(node_pages / 2 * kPageSize);
    arm.touch(p, anon.start(), anon.bytes());
    return capture(k, p, nullptr, f);
}

void
expectIdentical(const Snapshot &spans, const Snapshot &pages)
{
    EXPECT_EQ(spans.parentLeaves, pages.parentLeaves);
    EXPECT_EQ(spans.childLeaves, pages.childLeaves);
    EXPECT_EQ(spans.faults, pages.faults);
    EXPECT_EQ(spans.hugeFaults, pages.hugeFaults);
    EXPECT_EQ(spans.baseFaults, pages.baseFaults);
    EXPECT_EQ(spans.cowFaults, pages.cowFaults);
    EXPECT_EQ(spans.fileFaults, pages.fileFaults);
    EXPECT_EQ(spans.totalCycles, pages.totalCycles);
    EXPECT_EQ(spans.latencySamples, pages.latencySamples);
    EXPECT_EQ(spans.parentTouched, pages.parentTouched);
    EXPECT_EQ(spans.parentAllocated, pages.parentAllocated);
    EXPECT_EQ(spans.noHugeBlock, pages.noHugeBlock);
    EXPECT_EQ(spans.oom, pages.oom);
    EXPECT_EQ(spans.directReclaims, pages.directReclaims);
    EXPECT_EQ(spans.fileFrames, pages.fileFrames);
}

/**
 * One single-node kernel per arm; both arms get the same config.
 * Eager raises MAX_ORDER to 1 GiB blocks, so its node must stay a
 * multiple of the top-order block.
 */
std::unique_ptr<Kernel>
makeGoldenKernel(PolicyKind kind, bool thp, const char *prefix,
                 std::uint64_t node_bytes = 256ull << 20)
{
    KernelConfig cfg = kernelConfigFor(kind);
    cfg.phys.bytesPerNode =
        kind == PolicyKind::Eager ? (1ull << 30) : node_bytes;
    cfg.phys.numNodes = 1;
    cfg.thpEnabled = thp && kind != PolicyKind::Base4k;
    cfg.metricsPrefix = prefix;
    return std::make_unique<Kernel>(cfg, makePolicy(kind));
}

class FaultEngineGolden : public ::testing::TestWithParam<PolicyKind>
{
};

} // namespace

TEST_P(FaultEngineGolden, BatchedMatchesPerFault)
{
    const PolicyKind kind = GetParam();
    for (bool thp : {false, true}) {
        for (bool scrambled : {false, true}) {
            SCOPED_TRACE(policyName(kind) + (thp ? "/thp" : "/4k") +
                         (scrambled ? "/scrambled" : "/sorted"));
            auto kspan = makeGoldenKernel(kind, thp, "golden_span");
            auto kpage = makeGoldenKernel(kind, thp, "golden_page");
            expectIdentical(runScenario(*kspan, Arm{true}, scrambled),
                            runScenario(*kpage, Arm{false}, scrambled));
        }
    }
}

TEST_P(FaultEngineGolden, OutOfMemoryMatchesPerFault)
{
    const PolicyKind kind = GetParam();
    if (kind == PolicyKind::Eager)
        GTEST_SKIP() << "eager pre-allocates at mmap time, which does "
                        "not drop the page cache";
    // A 32 MiB node keeps the anonymous VMA (4 K pages) inside the
    // page-table pool's first 64-frame refill (see
    // MidChunkPoolRefillDivergesFromPerPage for longer spans).
    constexpr std::uint64_t kNodeBytes = 32ull << 20;
    for (bool thp : {false, true}) {
        SCOPED_TRACE(policyName(kind) + (thp ? "/thp" : "/4k"));
        auto kspan =
            makeGoldenKernel(kind, thp, "golden_oom_span", kNodeBytes);
        auto kpage =
            makeGoldenKernel(kind, thp, "golden_oom_page", kNodeBytes);
        const Snapshot spans = runOomScenario(*kspan, Arm{true});
        EXPECT_EQ(spans.directReclaims, 1u);
        expectIdentical(spans, runOomScenario(*kpage, Arm{false}));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FaultEngineGolden,
    ::testing::Values(PolicyKind::Thp, PolicyKind::Base4k, PolicyKind::Ca,
                      PolicyKind::Eager, PolicyKind::Ingens,
                      PolicyKind::Ranger, PolicyKind::Ideal),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        std::string n = policyName(info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// Known gap: a chunk places all of its pages before it installs any,
// so a page-table pool refill (a 64-page buddy block) that one touch()
// per page would take between two data pages is taken after the whole
// chunk's placements instead, and the pages after it land elsewhere.
// A fresh process first refills about 31 K pages into a 4 KiB span.
// This pins that the arms still diverge there; when the chunk path
// ends its placement run at an install that refills the pool, make
// it expect equality (the goldens will move with it).
TEST(FaultEngineSpans, MidChunkPoolRefillDivergesFromPerPage)
{
    auto kspan = makeGoldenKernel(PolicyKind::Thp, false, "refill_span");
    auto kpage = makeGoldenKernel(PolicyKind::Thp, false, "refill_page");
    std::vector<Leaf> leaves[2];
    for (int i = 0; i < 2; ++i) {
        Kernel &k = i == 0 ? *kspan : *kpage;
        Process &p = k.createProcess("refill");
        Vma &anon = p.mmap(32768 * kPageSize);
        Arm{i == 0}.touch(p, anon.start(), anon.bytes());
        leaves[i] = collectLeaves(p);
    }
    ASSERT_EQ(leaves[0].size(), leaves[1].size());
    const auto diverged = std::mismatch(leaves[0].begin(), leaves[0].end(),
                                        leaves[1].begin());
    ASSERT_NE(diverged.first, leaves[0].end());
    EXPECT_GT(diverged.first - leaves[0].begin(), 30000);
}
