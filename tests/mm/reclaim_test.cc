/**
 * @file
 * Memory-pressure invariants on an overcommitted kernel: four 16 MiB
 * regions touched against one 48 MiB node, so the fault path has to
 * evict, swap and reclaim to finish.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "mm/kernel.hh"
#include "mm/reclaim.hh"

namespace contig
{
namespace
{

constexpr unsigned kRegions = 4;
constexpr std::uint64_t kMiB = 1ull << 20;
constexpr std::uint64_t kRegionBytes = 16 * kMiB;
constexpr std::uint64_t kChunkBytes = 1 * kMiB;

/** 4 regions x 16 MiB against one 48 MiB node: 1.33x overcommit. */
KernelConfig
pressureConfig(PolicyKind kind)
{
    KernelConfig cfg = kernelConfigFor(kind);
    cfg.phys.numNodes = 1;
    cfg.phys.bytesPerNode = 48 * kMiB;
    cfg.reclaimEnabled = true;
    cfg.kswapdEnabled = true;
    cfg.contigAwareReclaim = false;
    return cfg;
}

struct Region
{
    Process *proc = nullptr;
    Vma *vma = nullptr;
};

/**
 * One process per region, then one loop that touches the regions
 * round-robin a chunk at a time, so every region is live while the
 * node runs out.
 */
std::vector<Region>
populate(Kernel &k)
{
    std::vector<Region> regions;
    for (unsigned i = 0; i < kRegions; ++i) {
        Process &proc = k.createProcess("region" + std::to_string(i));
        regions.push_back({&proc, &k.mmapAnon(proc, kRegionBytes)});
    }
    for (std::uint64_t off = 0; off < kRegionBytes; off += kChunkBytes)
        for (const Region &r : regions)
            r.proc->touchRange(r.vma->start() + off, kChunkBytes);
    return regions;
}

void
exitAll(Kernel &k, const std::vector<Region> &regions)
{
    for (const Region &r : regions)
        k.exitProcess(*r.proc);
}

std::uint64_t
rstat(const std::atomic<std::uint64_t> &a)
{
    return a.load(std::memory_order_relaxed);
}

/** Per-zone (free pages, free-list lengths) snapshot. */
std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>
buddySnapshot(const PhysicalMemory &pm)
{
    std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> snap;
    for (unsigned n = 0; n < pm.numNodes(); ++n)
        snap.emplace_back(pm.zone(n).buddy().freePages(),
                          pm.zone(n).buddy().freeBlockCounts());
    return snap;
}

/**
 * Teardown invariant under pressure: after the stressed processes
 * exit, the buddy returns to its pre-run state. Base-4k policy keeps
 * the page-table footprint layout-determined; the warm-up run grows
 * the sticky kernel pool to steady state, and the exact free-list
 * comparison applies whenever the measured run didn't grow it further
 * (always asserted: the free page delta equals the pool growth, and
 * no page leaked to swap).
 */
TEST(Reclaim, BuddyRestoresExactlyAfterPressure)
{
    Kernel k(pressureConfig(PolicyKind::Base4k),
             makePolicy(PolicyKind::Base4k));
    ASSERT_NE(k.reclaim(), nullptr);

    const std::vector<Region> warmup = populate(k);
    EXPECT_EQ(k.audit(), "") << "warm-up populated";
    exitAll(k, warmup);
    EXPECT_EQ(k.audit(), "") << "warm-up exited";
    const auto before = buddySnapshot(k.physMem());
    const std::uint64_t pool_before = k.kernelPoolPages();

    const std::vector<Region> regions = populate(k);
    EXPECT_EQ(k.audit(), "") << "populated";
    for (const Region &r : regions)
        EXPECT_EQ(r.vma->touchedPages, kRegionBytes / kPageSize);
    const ReclaimStats &rs = k.reclaim()->stats();
    EXPECT_GT(rstat(rs.reclaimed), 0u);
    EXPECT_GT(rstat(rs.swapOuts), 0u);
    exitAll(k, regions);
    EXPECT_EQ(k.audit(), "") << "exited";

    EXPECT_EQ(k.reclaim()->swappedPages(), 0u);
    const auto after = buddySnapshot(k.physMem());
    const std::uint64_t pool_growth = k.kernelPoolPages() - pool_before;
    EXPECT_EQ(before[0].first, after[0].first + pool_growth);
    if (pool_growth == 0) {
        EXPECT_EQ(before, after);
    }
}

/**
 * Targeted reclaim of one frame inside a huge anon leaf: the leaf is
 * split into 512 base leaves, only the target is evicted, and the
 * audit holds after every step. The target is a tail frame, so its
 * owner is found through Kernel::claimHead().
 */
TEST(Reclaim, TargetedReclaimSplitsHugeLeafAtTail)
{
    KernelConfig cfg = pressureConfig(PolicyKind::Ca);
    cfg.contigAwareReclaim = true;
    ASSERT_TRUE(cfg.thpEnabled);
    Kernel k(cfg, makePolicy(PolicyKind::Ca));
    ReclaimEngine &rec = *k.reclaim();
    Process &p = k.createProcess("p");
    Vma &vma = k.mmapAnon(p, 4 * kMiB);
    p.touchRange(vma.start(), 4 * kMiB);
    EXPECT_EQ(k.audit(), "");

    const Vpn vpn = vma.start().pageNumber();
    const auto huge = p.pageTable().lookup(vpn);
    ASSERT_TRUE(huge && huge->valid());
    ASSERT_EQ(huge->order, kHugeOrder);
    const std::uint64_t off = 37;
    const Pfn target = huge->pfn + off;
    EXPECT_EQ(k.claimHead(target), huge->pfn);

    EXPECT_EQ(rec.reclaimRange(target, 0), 1u);
    EXPECT_EQ(rstat(rec.stats().thpSplits), 1u);
    EXPECT_EQ(rstat(rec.stats().swapOuts), 1u);
    EXPECT_TRUE(k.physMem().isFreePage(target));
    EXPECT_EQ(rec.swappedPages(), 1u);
    EXPECT_EQ(k.audit(), "");

    // The rest of the huge leaf stays mapped as exclusive 4 KiB leaves,
    // each the head of its own order-0 block.
    for (std::uint64_t i = 0; i < pagesInOrder(kHugeOrder); ++i) {
        const auto m = p.pageTable().lookup(vpn + i);
        if (i == off) {
            EXPECT_FALSE(m && m->valid());
            continue;
        }
        ASSERT_TRUE(m && m->valid()) << "page " << i;
        EXPECT_EQ(m->order, 0u);
        EXPECT_EQ(m->pfn, huge->pfn + i);
        EXPECT_EQ(k.claimHead(m->pfn), m->pfn);
    }

    // The evicted page refaults from swap.
    p.touch(vma.start() + off * kPageSize);
    EXPECT_EQ(rstat(rec.stats().refaults), 1u);
    EXPECT_EQ(rec.swappedPages(), 0u);
    EXPECT_EQ(k.audit(), "");
    k.exitProcess(p);
    EXPECT_EQ(k.audit(), "");
}

/**
 * CA paging with THP and contiguity-aware reclaim under the same
 * overcommit: the CA targets that residents occupy are taken back
 * through targeted reclaim, and the audit holds after each phase.
 */
TEST(Reclaim, ContigAwareCaKeepsAuditUnderPressure)
{
    KernelConfig cfg = pressureConfig(PolicyKind::Ca);
    cfg.contigAwareReclaim = true;
    Kernel k(cfg, makePolicy(PolicyKind::Ca));
    const std::vector<Region> regions = populate(k);
    EXPECT_EQ(k.audit(), "");
    const ReclaimStats &rs = k.reclaim()->stats();
    EXPECT_GT(rstat(rs.targetedReclaims), 0u);
    EXPECT_GT(rstat(rs.thpSplits), 0u);
    exitAll(k, regions);
    EXPECT_EQ(k.audit(), "");
    EXPECT_EQ(k.reclaim()->swappedPages(), 0u);
}

} // namespace
} // namespace contig
