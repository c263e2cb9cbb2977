#include <gtest/gtest.h>

#include "base/align.hh"
#include "mm/kernel.hh"
#include "mm/migrate.hh"

using namespace contig;

namespace
{

std::unique_ptr<Kernel>
makeKernel()
{
    KernelConfig cfg;
    cfg.phys.bytesPerNode = 128ull << 20;
    cfg.phys.numNodes = 1;
    return std::make_unique<Kernel>(cfg,
                                    std::make_unique<DefaultThpPolicy>());
}

} // namespace

TEST(PageCache, ReadaheadFillsWindow)
{
    auto k = makeKernel();
    File &f = k->createFile(256);
    k->readFile(f, 0, 1);
    EXPECT_EQ(f.cachedPages(), kReadaheadPages);
    EXPECT_TRUE(f.isCached(0));
    EXPECT_TRUE(f.isCached(kReadaheadPages - 1));
    EXPECT_FALSE(f.isCached(kReadaheadPages));
}

TEST(PageCache, ReadaheadClampsAtEof)
{
    auto k = makeKernel();
    File &f = k->createFile(10);
    k->readFile(f, 8, 2);
    EXPECT_EQ(f.cachedPages(), 2u);
}

TEST(PageCache, RereadDoesNotReallocate)
{
    auto k = makeKernel();
    File &f = k->createFile(64);
    k->readFile(f, 0, 64);
    const std::uint64_t free_after = k->physMem().freePages();
    k->readFile(f, 0, 64);
    EXPECT_EQ(k->physMem().freePages(), free_after);
}

TEST(PageCache, SparseReadsLeaveHoles)
{
    auto k = makeKernel();
    File &f = k->createFile(256);
    k->readFile(f, 0, 1);
    k->readFile(f, 128, 1);
    EXPECT_TRUE(f.isCached(0));
    EXPECT_TRUE(f.isCached(128));
    EXPECT_FALSE(f.isCached(64));
    EXPECT_EQ(f.cachedPages(), 2 * kReadaheadPages);
}

TEST(PageCache, DropCachesFreesEverything)
{
    auto k = makeKernel();
    const std::uint64_t free0 = k->physMem().freePages();
    File &f = k->createFile(256);
    k->readFile(f, 0, 256);
    EXPECT_LT(k->physMem().freePages(), free0);
    k->dropCaches();
    EXPECT_EQ(k->physMem().freePages(), free0);
    EXPECT_EQ(f.cachedPages(), 0u);
}

TEST(PageCache, DropCachesSkipsMappedPages)
{
    auto k = makeKernel();
    File &f = k->createFile(64);
    Process &p = k->createProcess("r");
    Vma &vma = p.mmapFile(f.id(), 64 * kPageSize);
    p.touch(vma.start(), Access::Read);
    const std::uint64_t cached = f.cachedPages();
    ASSERT_GT(cached, 0u);
    k->dropCaches();
    // The mapped page survives; unmapped readahead pages are dropped.
    EXPECT_TRUE(f.isCached(0));
    EXPECT_LT(f.cachedPages(), cached);
    k->exitProcess(p);
    k->dropCaches();
    EXPECT_EQ(f.cachedPages(), 0u);
}

TEST(PageCache, DirectReclaimEvictsUnderPressure)
{
    auto k = makeKernel();
    // Fill ~half the machine with cache...
    File &f = k->createFile((48ull << 20) >> kPageShift);
    k->readFile(f, 0, f.sizePages());
    ASSERT_GT(f.cachedPages(), 0u);
    // ...then allocate more anon memory than remains free.
    Process &p = k->createProcess("big");
    Vma &vma = p.mmap(100ull << 20);
    p.touchRange(vma.start(), vma.bytes());
    // The fault path reclaimed the cache instead of dying.
    EXPECT_GT(k->counters().get("reclaim.direct"), 0u);
    EXPECT_LT(f.cachedPages(), f.sizePages());
}

TEST(Migrate, SwapLeavesExchangesTwoProcesses)
{
    auto k = makeKernel();
    Process &a = k->createProcess("a");
    Process &b = k->createProcess("b");
    Vma &va = a.mmap(kHugeSize);
    Vma &vb = b.mmap(kHugeSize);
    a.touch(va.start());
    b.touch(vb.start());

    auto ma = a.pageTable().lookup(va.start().pageNumber());
    auto mb = b.pageTable().lookup(vb.start().pageNumber());
    ASSERT_TRUE(ma && mb);

    EXPECT_EQ(swapLeaves(*k, a, va.start().pageNumber(), mb->pfn),
              MigrateResult::Done);
    auto ma2 = a.pageTable().lookup(va.start().pageNumber());
    auto mb2 = b.pageTable().lookup(vb.start().pageNumber());
    EXPECT_EQ(ma2->pfn, mb->pfn);
    EXPECT_EQ(mb2->pfn, ma->pfn);
    // Frame reverse-mapping swapped along.
    const Frame &fa = k->physMem().frame(ma2->pfn);
    EXPECT_EQ(fa.ownerId, a.pid());
    EXPECT_EQ(k->counters().get("migrate.shootdowns"), 2u);
    EXPECT_EQ(k->audit(), "");
    k->exitProcess(a);
    k->exitProcess(b);
}

TEST(Migrate, SwapRefusesOrderMismatch)
{
    KernelConfig cfg;
    cfg.phys.bytesPerNode = 128ull << 20;
    cfg.phys.numNodes = 1;
    cfg.thpEnabled = true;
    Kernel k(cfg, std::make_unique<DefaultThpPolicy>());
    Process &a = k.createProcess("a");
    Process &b = k.createProcess("b");
    Vma &va = a.mmap(kHugeSize);     // huge leaf
    Vma &vb = b.mmap(64 << 10);      // 4 KiB leaves
    a.touch(va.start());
    b.touch(vb.start());
    auto mb = b.pageTable().lookup(vb.start().pageNumber());
    ASSERT_TRUE(mb);
    Pfn dest = alignDown(mb->pfn, 512);
    EXPECT_NE(swapLeaves(k, a, va.start().pageNumber(), dest),
              MigrateResult::Done);
}

TEST(Migrate, SwapRefusesUnmovableDestinations)
{
    auto k = makeKernel();
    Process &a = k->createProcess("a");
    Vma &va = a.mmap(kPageSize);
    a.touch(va.start());
    // Destination is a page-table pool frame: not anonymous.
    Pfn pool_frame = 0;
    bool found = false;
    for (Pfn p = 0; p < k->physMem().totalFrames() && !found; ++p) {
        if (k->physMem().frame(p).ownerKind == FrameOwner::PageTable) {
            pool_frame = p;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    EXPECT_EQ(swapLeaves(*k, a, va.start().pageNumber(), pool_frame),
              MigrateResult::DestBusy);
}
