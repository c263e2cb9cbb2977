#include <gtest/gtest.h>

#include "mm/kernel.hh"
#include "mm/migrate.hh"

using namespace contig;

namespace
{

KernelConfig
smallConfig(bool thp = true)
{
    KernelConfig cfg;
    cfg.phys.bytesPerNode = 128ull << 20;
    cfg.phys.numNodes = 2;
    cfg.thpEnabled = thp;
    return cfg;
}

std::unique_ptr<Kernel>
makeKernel(bool thp = true)
{
    return std::make_unique<Kernel>(smallConfig(thp),
                                    std::make_unique<DefaultThpPolicy>());
}

} // namespace

TEST(Kernel, TouchFaultsOnce)
{
    auto k = makeKernel(false);
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(1 << 20);
    p.touch(vma.start());
    EXPECT_EQ(k->faultStats().faults, 1u);
    p.touch(vma.start()); // already mapped: no new fault
    EXPECT_EQ(k->faultStats().faults, 1u);
    EXPECT_EQ(vma.touchedPages, 1u);
    EXPECT_EQ(vma.allocatedPages, 1u);
}

TEST(Kernel, ThpFaultMapsHuge)
{
    auto k = makeKernel(true);
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(4 * kHugeSize);
    p.touch(vma.start() + 123);
    EXPECT_EQ(k->faultStats().hugeFaults, 1u);
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    EXPECT_EQ(m->order, kHugeOrder);
    EXPECT_EQ(vma.allocatedPages, 512u);
    EXPECT_EQ(vma.touchedPages, 1u); // bloat: 511 untouched pages
}

TEST(Kernel, SmallVmaUses4k)
{
    auto k = makeKernel(true);
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(64 << 10); // < 2 MiB: no huge fault possible
    p.touchRange(vma.start(), 64 << 10);
    EXPECT_EQ(k->faultStats().hugeFaults, 0u);
    EXPECT_EQ(k->faultStats().baseFaults, 16u);
}

TEST(Kernel, ThpDisabledUses4k)
{
    auto k = makeKernel(false);
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(4 * kHugeSize);
    p.touchRange(vma.start(), kHugeSize);
    EXPECT_EQ(k->faultStats().hugeFaults, 0u);
    EXPECT_EQ(k->faultStats().baseFaults, 512u);
}

TEST(Kernel, MunmapFreesMemory)
{
    auto k = makeKernel(true);
    const std::uint64_t before = k->physMem().freePages();
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(8 * kHugeSize);
    p.touchRange(vma.start(), 8 * kHugeSize);
    EXPECT_LT(k->physMem().freePages(), before);
    p.munmap(vma);
    // Page-table node frames stay in the kernel's metadata pool; all
    // data frames must be back.
    k->exitProcess(p);
    EXPECT_EQ(k->physMem().freePages(), before - k->kernelPoolPages());
}

TEST(Kernel, ForkSharesCow)
{
    auto k = makeKernel(false);
    Process &p = k->createProcess("parent");
    Vma &vma = p.mmap(1 << 20);
    p.touchRange(vma.start(), 1 << 20);
    const std::uint64_t faults_before = k->faultStats().faults;

    Process &c = p.fork("child");
    // Child sees the same frames, read-only COW.
    auto pm = p.pageTable().lookup(vma.start().pageNumber());
    auto cm = c.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(pm && cm);
    EXPECT_EQ(pm->pfn, cm->pfn);
    EXPECT_TRUE(cm->cow);

    // Child reads: no fault. Child writes: COW copy.
    c.touch(vma.start(), Access::Read);
    EXPECT_EQ(k->faultStats().cowFaults, 0u);
    c.touch(vma.start(), Access::Write);
    EXPECT_EQ(k->faultStats().cowFaults, 1u);
    auto cm2 = c.pageTable().lookup(vma.start().pageNumber());
    EXPECT_NE(cm2->pfn, pm->pfn);
    EXPECT_FALSE(cm2->cow);
    EXPECT_GT(k->faultStats().faults, faults_before);

    k->exitProcess(c);
    k->exitProcess(p);
}

TEST(Kernel, FileMappingSharesPageCache)
{
    auto k = makeKernel(false);
    File &f = k->createFile(256);
    Process &a = k->createProcess("a");
    Process &b = k->createProcess("b");
    Vma &va = a.mmapFile(f.id(), 256 * kPageSize);
    Vma &vb = b.mmapFile(f.id(), 256 * kPageSize);

    a.touch(va.start(), Access::Read);
    EXPECT_EQ(k->faultStats().fileFaults, 1u);
    // Readahead cached a window.
    EXPECT_EQ(f.cachedPages(), kReadaheadPages);

    b.touch(vb.start(), Access::Read);
    auto ma = a.pageTable().lookup(va.start().pageNumber());
    auto mb = b.pageTable().lookup(vb.start().pageNumber());
    ASSERT_TRUE(ma && mb);
    EXPECT_EQ(ma->pfn, mb->pfn); // same page-cache frame

    // Page-cache pages survive process exit...
    k->exitProcess(a);
    k->exitProcess(b);
    EXPECT_EQ(f.cachedPages(), kReadaheadPages);
    // ...until caches are dropped.
    k->dropCaches();
    EXPECT_EQ(f.cachedPages(), 0u);
}

TEST(Kernel, FileOffsetMapping)
{
    auto k = makeKernel(false);
    File &f = k->createFile(256);
    Process &p = k->createProcess("p");
    Vma &v = p.mmapFile(f.id(), 16 * kPageSize, 100);
    p.touch(v.start() + 3 * kPageSize, Access::Read);
    EXPECT_TRUE(f.isCached(103));
    EXPECT_FALSE(f.isCached(3));
    k->exitProcess(p);
    k->dropCaches();
}

TEST(Kernel, HugeFallbackTo4k)
{
    // Exhaust all but a few 4 KiB pages so a huge allocation fails.
    auto k = makeKernel(true);
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(4 * kHugeSize);

    PhysicalMemory &pm = k->physMem();
    // Take every huge-order block; only sub-huge remnants (from the
    // kernel pool's split) stay free.
    while (pm.alloc(kHugeOrder))
        ;
    std::uint64_t free_before = pm.freePages();
    ASSERT_LT(free_before, pagesInOrder(kHugeOrder));
    ASSERT_GT(free_before, 0u);
    p.touch(vma.start());
    EXPECT_EQ(k->policy().allocFailCounts().noHugeBlock, 1u);
    EXPECT_EQ(k->policy().allocFailCounts().oom, 0u);
    EXPECT_EQ(k->faultStats().baseFaults, 1u);
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    EXPECT_EQ(m->order, 0u);
}

TEST(Kernel, FaultLatencyRecorded)
{
    auto k = makeKernel(true);
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(kHugeSize);
    p.touch(vma.start());
    EXPECT_EQ(k->faultStats().latencyUs.count(), 1u);
    // A huge fault zeroes 512 pages: latency must exceed the base.
    double lat = k->faultStats().latencyUs.quantile(1.0);
    double base_us = k->config().faultBaseCycles / k->config().cyclesPerUs;
    EXPECT_GT(lat, base_us);
}

TEST(Kernel, BackingHookFires)
{
    auto k = makeKernel(true);
    std::uint64_t backed_pages = 0;
    k->backingHook = [&](Pfn, unsigned order) {
        backed_pages += pagesInOrder(order);
    };
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(kHugeSize);
    p.touch(vma.start());
    // The huge data block plus any page-table node frames.
    EXPECT_GE(backed_pages, 512u);
}

TEST(KernelAudit, FlagsDescriptorDrift)
{
    auto k = makeKernel(true);
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(4 * kHugeSize);
    p.touchRange(vma.start(), 2 * kHugeSize);
    ASSERT_EQ(k->audit(), "");

    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    Frame &f = k->physMem().frame(m->pfn);
    ++f.mapCount;
    EXPECT_NE(k->audit(), "");
    --f.mapCount;
    ++f.refCount;
    EXPECT_NE(k->audit(), "");
    --f.refCount;
    f.ownerVaddr += kPageSize;
    EXPECT_NE(k->audit(), "");
    f.ownerVaddr -= kPageSize;
    EXPECT_EQ(k->audit(), "");
}

TEST(KernelAudit, ForkedChildOutlivesParent)
{
    auto k = makeKernel(false);
    Process &p = k->createProcess("parent");
    Vma &vma = p.mmap(1 << 20);
    p.touchRange(vma.start(), 1 << 20);
    Process &c = p.fork("child");
    c.touch(vma.start(), Access::Write);
    EXPECT_EQ(k->audit(), "");
    // The child's untouched COW leaves still name the parent.
    k->exitProcess(p);
    EXPECT_EQ(k->audit(), "");
    k->exitProcess(c);
    EXPECT_EQ(k->audit(), "");
}

TEST(Migrate, MovesLeafToChosenFrame)
{
    auto k = makeKernel(false);
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(1 << 20);
    p.touch(vma.start());
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);

    // Find a free aligned destination far away.
    Pfn dest = k->physMem().totalFrames() / 2 + 4096;
    ASSERT_TRUE(k->physMem().isFreePage(dest));
    EXPECT_EQ(migrateLeaf(*k, p, vma.start().pageNumber(), dest),
              MigrateResult::Done);
    EXPECT_EQ(k->audit(), "");
    auto m2 = p.pageTable().lookup(vma.start().pageNumber());
    EXPECT_EQ(m2->pfn, dest);
    EXPECT_TRUE(k->physMem().isFreePage(m->pfn)); // old frame freed
    EXPECT_EQ(k->counters().get("migrate.shootdowns"), 1u);
}

TEST(Migrate, RefusesSharedFrames)
{
    auto k = makeKernel(false);
    Process &p = k->createProcess("parent");
    Vma &vma = p.mmap(1 << 20);
    p.touch(vma.start());
    p.fork("child");
    Pfn dest = k->physMem().totalFrames() / 2;
    EXPECT_EQ(migrateLeaf(*k, p, vma.start().pageNumber(), dest),
              MigrateResult::Shared);
}

TEST(Migrate, PromoteHuge)
{
    auto k = makeKernel(false); // 4 KiB faults only
    Process &p = k->createProcess("t");
    Vma &vma = p.mmap(kHugeSize);
    p.touchRange(vma.start(), kHugeSize);
    EXPECT_EQ(k->faultStats().baseFaults, 512u);

    Vpn base = vma.start().pageNumber();
    EXPECT_TRUE(promoteHuge(*k, p, base));
    EXPECT_EQ(k->audit(), "");
    auto m = p.pageTable().lookup(base);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->order, kHugeOrder);
    EXPECT_EQ(k->counters().get("promote.pages"), 512u);

    // Second promotion attempt: already huge.
    EXPECT_FALSE(promoteHuge(*k, p, base));
}
