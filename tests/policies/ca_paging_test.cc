#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "base/rng.hh"
#include "mm/kernel.hh"
#include "mm/migrate.hh"
#include "policies/ca_paging.hh"

using namespace contig;

namespace
{

KernelConfig
smallConfig()
{
    KernelConfig cfg;
    cfg.phys.bytesPerNode = 256ull << 20;
    cfg.phys.numNodes = 2;
    return cfg;
}

struct CaTest : public ::testing::Test
{
    CaTest()
    {
        auto policy = std::make_unique<CaPagingPolicy>();
        ca = policy.get();
        kernel = std::make_unique<Kernel>(smallConfig(), std::move(policy));
    }

    std::unique_ptr<Kernel> kernel;
    CaPagingPolicy *ca = nullptr;
};

/** Longest run of contiguous (vpn - pfn) offsets, in pages. */
std::uint64_t
largestContiguousRun(const Process &proc)
{
    std::uint64_t best = 0, cur = 0;
    std::int64_t last_off = 0;
    Vpn last_end = 0;
    bool have = false;
    proc.pageTable().forEachLeaf([&](Vpn vpn, const Mapping &m) {
        std::int64_t off = static_cast<std::int64_t>(vpn) -
                           static_cast<std::int64_t>(m.pfn);
        std::uint64_t n = pagesInOrder(m.order);
        if (have && off == last_off && vpn == last_end) {
            cur += n;
        } else {
            cur = n;
        }
        last_off = off;
        last_end = vpn + n;
        have = true;
        best = std::max(best, cur);
    });
    return best;
}

/**
 * Reference for the contiguity-bit marking: on every new leaf, scan
 * the same-Offset run around it both ways and mark each unmarked leaf
 * once the run reaches the threshold.
 */
class RescanCaPolicy : public CaPagingPolicy
{
  public:
    using CaPagingPolicy::CaPagingPolicy;

    void
    onMapped(Kernel &kernel, Process &proc, Vma &vma, Vpn vpn, Pfn pfn,
             unsigned order) override
    {
        (void)kernel;
        (void)vma;
        PageTable &pt = proc.pageTable();
        const std::int64_t offset =
            static_cast<std::int64_t>(vpn) - static_cast<std::int64_t>(pfn);
        const auto offsetOf = [](Vpn base, const Mapping &m) {
            return static_cast<std::int64_t>(base) -
                   static_cast<std::int64_t>(m.pfn);
        };
        Vpn run_start = vpn;
        while (run_start > 0) {
            auto m = pt.lookup(run_start - 1);
            if (!m)
                break;
            const Vpn base = (run_start - 1) & ~(pagesInOrder(m->order) - 1);
            if (offsetOf(base, *m) != offset)
                break;
            run_start = base;
        }
        Vpn run_end = vpn + pagesInOrder(order);
        for (auto m = pt.lookup(run_end); m && offsetOf(run_end, *m) == offset;
             m = pt.lookup(run_end))
            run_end += pagesInOrder(m->order);
        if (run_end - run_start < config().markThresholdPages)
            return;
        for (Vpn v = run_start; v < run_end;) {
            auto m = pt.lookup(v);
            if (!m->contigBit) {
                pt.setContigBit(v, true);
                ++stats_.markedPtes;
            }
            v += pagesInOrder(m->order);
        }
    }
};

/** Huge-aligned start of a region well above the mmap cursor. */
constexpr Addr kFarBase = Addr{0x7700} << 32;

Vma &
mmapAt(Process &p, std::uint64_t page, std::uint64_t pages)
{
    return p.addressSpace().mmap(pages * kPageSize, VmaKind::Anon,
                                 Gva{kFarBase + page * kPageSize});
}

Gva
pageAt(const Vma &vma, std::uint64_t page)
{
    return vma.start() + page * kPageSize;
}

/** Every leaf of a process as (vpn, pfn, order, contigBit). */
std::vector<std::tuple<Vpn, Pfn, unsigned, bool>>
leaves(const Process &p)
{
    std::vector<std::tuple<Vpn, Pfn, unsigned, bool>> out;
    p.pageTable().forEachLeaf([&](Vpn vpn, const Mapping &m) {
        out.emplace_back(vpn, m.pfn, m.order, m.contigBit);
    });
    return out;
}

} // namespace

TEST_F(CaTest, SequentialTouchesFormOneMapping)
{
    Process &p = kernel->createProcess("t");
    const std::uint64_t bytes = 64ull << 20; // 64 MiB
    Vma &vma = p.mmap(bytes);
    p.touchRange(vma.start(), bytes);

    // One placement, everything else extends it through the Offset.
    EXPECT_EQ(ca->stats().placements, 1u);
    EXPECT_EQ(ca->stats().subVmaPlacements, 0u);
    EXPECT_EQ(ca->stats().offsetMisses, 0u);
    EXPECT_EQ(largestContiguousRun(p), bytes >> kPageShift);
}

TEST_F(CaTest, RandomTouchOrderStillContiguous)
{
    // Once the placement is anchored by the first fault, the Offset
    // makes every later fault land on its slot regardless of order.
    Process &p = kernel->createProcess("t");
    const std::uint64_t huge_count = 16;
    Vma &vma = p.mmap(huge_count * kHugeSize);
    std::vector<std::uint64_t> order{0, 7, 3, 15, 9, 1, 14, 2,
                                     8, 5, 12, 4, 11, 6, 13, 10};
    for (auto i : order)
        p.touch(vma.start() + i * kHugeSize);
    EXPECT_EQ(largestContiguousRun(p), huge_count * 512);
    EXPECT_EQ(ca->stats().offsetMisses, 0u);
}

TEST_F(CaTest, MidVmaFirstFaultTriggersSubPlacements)
{
    // If the first fault lands mid-VMA, pages below the anchor fall
    // before the chosen region; CA recovers with sub-VMA placements
    // (best-effort, as the paper describes).
    Process &p = kernel->createProcess("t");
    const std::uint64_t huge_count = 16;
    Vma &vma = p.mmap(huge_count * kHugeSize);
    for (std::uint64_t i = 8; i < huge_count; ++i)
        p.touch(vma.start() + i * kHugeSize);
    for (std::uint64_t i = 0; i < 8; ++i)
        p.touch(vma.start() + i * kHugeSize);
    // Everything is mapped, in at most a handful of contiguous runs.
    EXPECT_EQ(vma.allocatedPages, huge_count * 512);
    EXPECT_GE(largestContiguousRun(p), 8u * 512);
    EXPECT_LE(vma.caOffsetCount(), 4u);
}

TEST_F(CaTest, TwoVmasGetDisjointRegions)
{
    Process &p = kernel->createProcess("t");
    Vma &a = p.mmap(16 * kHugeSize);
    Vma &b = p.mmap(16 * kHugeSize);
    p.touchRange(a.start(), a.bytes());
    p.touchRange(b.start(), b.bytes());
    // Both fully contiguous (the next-fit rover keeps them apart).
    EXPECT_EQ(largestContiguousRun(p), 16u * 512);
    EXPECT_EQ(ca->stats().placements, 2u);
    EXPECT_EQ(ca->stats().offsetMisses, 0u);

    auto ma = p.pageTable().lookup(a.start().pageNumber());
    auto mb = p.pageTable().lookup(b.start().pageNumber());
    ASSERT_TRUE(ma && mb);
    EXPECT_NE(ma->pfn, mb->pfn);
}

TEST_F(CaTest, OccupiedTargetTriggersSubVmaPlacement)
{
    Process &p = kernel->createProcess("t");
    Vma &vma = p.mmap(32 * kHugeSize);
    // Fault the first half.
    p.touchRange(vma.start(), 16 * kHugeSize);

    // An interloper occupies the frames right after the mapping: the
    // would-be target of the next huge fault.
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    Pfn next_target = m->pfn + 16 * 512;
    ASSERT_TRUE(kernel->physMem().allocSpecific(next_target, kHugeOrder));

    p.touch(vma.start() + 16 * kHugeSize);
    EXPECT_EQ(ca->stats().offsetMisses, 1u);
    EXPECT_EQ(ca->stats().subVmaPlacements, 1u);
    EXPECT_EQ(vma.caOffsetCount(), 2u);

    // The rest of the VMA keeps extending the *new* sub-region.
    p.touchRange(vma.start() + 17 * kHugeSize, 15 * kHugeSize);
    EXPECT_EQ(ca->stats().subVmaPlacements, 1u);
}

/**
 * §III-C "Avoiding multithreading pitfalls", as a deterministic
 * interleaving: the test holds the replacement guard itself, playing
 * a fault whose re-placement of this VMA is still in flight. A second
 * huge fault whose Offset fails must lose — no second re-placement —
 * and demote to 4 KiB; once the winner publishes its Offset and
 * releases the guard, the next huge fault rides that Offset.
 */
TEST_F(CaTest, ReplacementGuardAdmitsOneReplacer)
{
    Process &p = kernel->createProcess("t");
    Vma &vma = p.mmap(32 * kHugeSize);
    p.touchRange(vma.start(), 16 * kHugeSize);
    ASSERT_EQ(ca->stats().placements, 1u);

    // Occupy the next huge target so the Offset fast path fails there.
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    ASSERT_TRUE(
        kernel->physMem().allocSpecific(m->pfn + 16 * 512, kHugeOrder));

    // The winner, mid re-placement.
    ASSERT_TRUE(vma.tryBeginReplacement());

    // The loser: its huge allocation fails without re-placing.
    const Vpn vpn16 = vma.start().pageNumber() + 16 * 512;
    const AllocResult lost =
        ca->allocate(*kernel, p, vma, vpn16, kHugeOrder);
    EXPECT_FALSE(lost.ok());
    EXPECT_EQ(lost.fail, AllocFail::NoHugeBlock);
    EXPECT_EQ(ca->stats().subVmaPlacements, 0u);
    EXPECT_TRUE(vma.replacementActive());

    // The loser's fault demotes to 4 KiB.
    p.touch(vma.start() + 16 * kHugeSize);
    auto demoted = p.pageTable().lookup(vpn16);
    ASSERT_TRUE(demoted);
    EXPECT_EQ(demoted->order, 0u);
    EXPECT_EQ(ca->stats().subVmaPlacements, 0u);

    // The winner publishes an Offset to a free, aligned block (node 1
    // is untouched) and releases the guard.
    auto cluster = kernel->physMem().zone(1).contigMap().largest();
    ASSERT_TRUE(cluster);
    const Pfn fresh = cluster->startPfn;
    const Vpn vpn17 = vpn16 + 512;
    vma.pushCaOffset(vpn17, static_cast<std::int64_t>(vpn17) -
                                static_cast<std::int64_t>(fresh));
    vma.endReplacement();

    // The next huge fault hits that Offset: no new placement.
    const std::uint64_t hits = ca->stats().offsetHits;
    p.touch(vma.start() + 17 * kHugeSize);
    auto rode = p.pageTable().lookup(vpn17);
    ASSERT_TRUE(rode);
    EXPECT_EQ(rode->order, kHugeOrder);
    EXPECT_EQ(rode->pfn, fresh);
    EXPECT_EQ(ca->stats().offsetHits, hits + 1);
    EXPECT_EQ(ca->stats().placements, 1u);
    EXPECT_EQ(ca->stats().subVmaPlacements, 0u);
}

TEST_F(CaTest, Base4kFailureFallsBack)
{
    KernelConfig cfg = smallConfig();
    cfg.thpEnabled = false;
    auto policy = std::make_unique<CaPagingPolicy>();
    auto *pol = policy.get();
    Kernel k(cfg, std::move(policy));

    Process &p = k.createProcess("t");
    Vma &vma = p.mmap(1 << 20);
    p.touch(vma.start());
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);

    // Occupy the next target page.
    ASSERT_TRUE(k.physMem().allocSpecific(m->pfn + 1, 0));
    p.touch(vma.start() + kPageSize);
    EXPECT_EQ(pol->stats().fallbacks, 1u);
    // No new Offset was tracked for the fallback.
    EXPECT_EQ(vma.caOffsetCount(), 1u);
}

TEST_F(CaTest, ContigBitsMarkedBeyondThreshold)
{
    Process &p = kernel->createProcess("t");
    Vma &vma = p.mmap(4 * kHugeSize);
    // First huge fault: 512 pages >= 32-page threshold, marked at once.
    p.touch(vma.start());
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    EXPECT_TRUE(m->contigBit);
    EXPECT_GT(ca->stats().markedPtes, 0u);
}

TEST_F(CaTest, ContigBitsRespectThresholdFor4k)
{
    KernelConfig cfg = smallConfig();
    cfg.thpEnabled = false;
    auto policy = std::make_unique<CaPagingPolicy>();
    Kernel k(cfg, std::move(policy));

    Process &p = k.createProcess("t");
    Vma &vma = p.mmap(1 << 20);
    // Touch 16 pages: below the 32-page threshold.
    p.touchRange(vma.start(), 16 * kPageSize);
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    EXPECT_FALSE(m->contigBit);

    // Crossing the threshold marks the whole run retroactively.
    p.touchRange(vma.start() + 16 * kPageSize, 16 * kPageSize);
    m = p.pageTable().lookup(vma.start().pageNumber());
    EXPECT_TRUE(m->contigBit);
    m = p.pageTable().lookup(vma.start().pageNumber() + 31);
    EXPECT_TRUE(m->contigBit);
}

TEST_F(CaTest, FilePagesAllocatedContiguously)
{
    File &f = kernel->createFile(1024);
    Process &p = kernel->createProcess("t");
    Vma &v = p.mmapFile(f.id(), 1024 * kPageSize);
    for (std::uint64_t i = 0; i < 1024; ++i)
        p.touch(v.start() + i * kPageSize, Access::Read);

    // All file pages must form one physically contiguous run.
    ASSERT_TRUE(f.caOffsetPages.has_value());
    Pfn first = f.frameFor(0);
    for (std::uint64_t i = 1; i < 1024; ++i)
        EXPECT_EQ(f.frameFor(i), first + i) << "page " << i;
    EXPECT_EQ(ca->stats().filePlacements, 1u);
}

TEST_F(CaTest, PlacementPrefersHomeNode)
{
    Process &p0 = kernel->createProcess("n0", 0);
    Process &p1 = kernel->createProcess("n1", 1);
    Vma &v0 = p0.mmap(8 * kHugeSize);
    Vma &v1 = p1.mmap(8 * kHugeSize);
    p0.touch(v0.start());
    p1.touch(v1.start());
    auto m0 = p0.pageTable().lookup(v0.start().pageNumber());
    auto m1 = p1.pageTable().lookup(v1.start().pageNumber());
    EXPECT_EQ(kernel->physMem().zoneOf(m0->pfn).node(), 0u);
    EXPECT_EQ(kernel->physMem().zoneOf(m1->pfn).node(), 1u);
}

TEST_F(CaTest, SpillsToRemoteNodeWhenHomeExhausted)
{
    // Exhaust node 0's top-order blocks.
    PhysicalMemory &pm = kernel->physMem();
    while (pm.zone(0).buddy().alloc(kMaxOrder))
        ;
    Process &p = kernel->createProcess("t", 0);
    Vma &vma = p.mmap(8 * kHugeSize);
    p.touchRange(vma.start(), vma.bytes());
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    EXPECT_EQ(pm.zoneOf(m->pfn).node(), 1u);
    EXPECT_EQ(largestContiguousRun(p), 8u * 512);
}

TEST_F(CaTest, RunMarksMatchRescanReference)
{
    // Two identical kernels see the same inputs; one marks through
    // CaPagingPolicy::onMapped, the other through the full two-way
    // rescan. Every leaf and the marked-PTE count must agree after
    // each phase, for thresholds of 1, the paper's 32 and 600 (more
    // than a huge page's 512), with THP off (4 KiB runs only) and on
    // (huge leaves joining 4 KiB runs).
    struct Rig
    {
        CaPagingPolicy *ca = nullptr;
        std::unique_ptr<Kernel> k;
        std::vector<Process *> procs;
        std::vector<Vma *> vmas;
    };
    for (const bool thp : {false, true}) {
        for (const std::uint64_t threshold : {1u, 32u, 600u}) {
            SCOPED_TRACE(testing::Message() << "thp " << thp
                                            << " threshold " << threshold);
            KernelConfig cfg = smallConfig();
            cfg.thpEnabled = thp;
            CaPagingConfig ccfg;
            ccfg.markThresholdPages = threshold;
            const auto make_rig = [&](bool rescan) {
                Rig r;
                std::unique_ptr<CaPagingPolicy> policy;
                if (rescan)
                    policy = std::make_unique<RescanCaPolicy>(ccfg);
                else
                    policy = std::make_unique<CaPagingPolicy>(ccfg);
                r.ca = policy.get();
                r.k = std::make_unique<Kernel>(cfg, std::move(policy));
                Process &a = r.k->createProcess("a");
                Process &b = r.k->createProcess("b");
                r.procs = {&a, &b};
                // vmas[0]: 40 head pages, one huge region, 400 tail
                // pages. vmas[1]: no huge region. vmas[2] (in a) and
                // vmas[3] (in b): one huge region each.
                r.vmas = {&mmapAt(a, 472, 952), &mmapAt(a, 2051, 300),
                          &mmapAt(a, 4496, 700), &mmapAt(b, 450, 600)};
                return r;
            };
            Rig live = make_rig(false);
            Rig ref = make_rig(true);
            const auto check = [&](const char *phase) {
                SCOPED_TRACE(phase);
                ASSERT_EQ(live.ca->stats().markedPtes,
                          ref.ca->stats().markedPtes);
                for (std::size_t i = 0; i < live.procs.size(); ++i)
                    ASSERT_EQ(leaves(*live.procs[i]), leaves(*ref.procs[i]))
                        << "proc " << i;
            };
            const auto touch = [&](std::size_t proc, std::size_t vma,
                                   std::uint64_t page) {
                for (Rig *r : {&live, &ref})
                    r->procs[proc]->touch(pageAt(*r->vmas[vma], page));
            };

            // Ascending faults across every threshold.
            for (std::uint64_t i = 0; i < 652; ++i)
                touch(0, 0, i);
            ASSERT_NO_FATAL_FAILURE(check("ascending"));

            // A span extending the same run.
            for (Rig *r : {&live, &ref})
                r->procs[0]->touchRange(pageAt(*r->vmas[0], 652),
                                        200 * kPageSize);
            ASSERT_NO_FATAL_FAILURE(check("span"));

            // Break the marked run 5 pages before its end, then extend
            // what is left of it.
            for (Rig *r : {&live, &ref}) {
                const Vpn vpn = r->vmas[0]->start().pageNumber() + 847;
                auto m = r->procs[0]->pageTable().lookup(vpn);
                ASSERT_TRUE(m);
                ASSERT_EQ(m->order, 0u);
                EXPECT_TRUE(m->contigBit);
                PhysicalMemory &pm = r->k->physMem();
                const Pfn dest = *pm.alloc(0, 1);
                pm.free(dest, 0);
                ASSERT_EQ(migrateLeaf(*r->k, *r->procs[0], vpn, dest),
                          MigrateResult::Done);
            }
            for (std::uint64_t i = 852; i < 892; ++i)
                touch(0, 0, i);
            ASSERT_NO_FATAL_FAILURE(check("break + extend"));

            // Descending faults below an anchored first page: each new
            // leaf joins the run above it.
            touch(0, 1, 0);
            for (std::uint64_t i = 299; i > 0; --i)
                touch(0, 1, i);
            ASSERT_NO_FATAL_FAILURE(check("descending"));

            // Random faults interleaved across two processes.
            std::vector<std::pair<std::size_t, std::uint64_t>> order;
            for (std::uint64_t i = 0; i < 700; ++i)
                order.emplace_back(2, i);
            for (std::uint64_t i = 0; i < 600; ++i)
                order.emplace_back(3, i);
            Rng rng(11);
            rng.shuffle(order);
            for (const auto &[vma, page] : order)
                touch(vma == 2 ? 0 : 1, vma, page);
            ASSERT_NO_FATAL_FAILURE(check("random"));

            // Fork, then COW writes inside marked runs of both sides.
            for (Rig *r : {&live, &ref}) {
                r->procs.push_back(&r->procs[0]->fork("child"));
                r->vmas.push_back(
                    r->procs[2]->addressSpace().findVma(r->vmas[0]->start()));
            }
            for (std::uint64_t i = 100; i < 140; ++i)
                touch(0, 0, i);
            for (std::uint64_t i = 600; i < 640; ++i)
                touch(2, 4, i);
            ASSERT_NO_FATAL_FAILURE(check("fork + COW"));
            EXPECT_GT(ref.ca->stats().markedPtes, 0u);
        }
    }
}
