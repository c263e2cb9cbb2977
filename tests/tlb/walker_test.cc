#include <gtest/gtest.h>

#include "mm/kernel.hh"
#include "tlb/walker.hh"
#include "virt/vm.hh"

using namespace contig;

namespace
{

WalkerConfig
noCaches()
{
    WalkerConfig cfg;
    cfg.pscEnabled = false;
    cfg.nestedTlbEnabled = false;
    cfg.cyclesPerRef = 10;
    return cfg;
}

} // namespace

TEST(Walker, Native4kWalkCostsFourRefs)
{
    PageTable pt;
    pt.map(0x1234, 55, 0);
    Walker w(pt, noCaches());
    auto res = w.walk(0x1234);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.refs, 4u);
    EXPECT_EQ(res.cycles, 40u);
    EXPECT_EQ(res.mapping.pfn, 55u);
}

TEST(Walker, NativeHugeWalkCostsThreeRefs)
{
    PageTable pt;
    pt.map(512, 1024, kHugeOrder);
    Walker w(pt, noCaches());
    auto res = w.walk(512 + 99);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.refs, 3u);
    // The offset is exact for the probed vpn, not the leaf base.
    EXPECT_EQ(res.offset,
              static_cast<std::int64_t>(512 + 99) -
                  static_cast<std::int64_t>(1024 + 99));
}

TEST(Walker, PscCutsUpperLevelRefs)
{
    PageTable pt;
    pt.map(0x1000, 1, 0);
    pt.map(0x1001, 2, 0);
    WalkerConfig cfg = noCaches();
    cfg.pscEnabled = true;
    cfg.pscEntries = 4;
    Walker w(pt, cfg);
    auto first = w.walk(0x1000);
    EXPECT_EQ(first.refs, 4u); // cold PSC
    auto second = w.walk(0x1001);
    EXPECT_EQ(second.refs, 2u); // PSC skips root+L3
    EXPECT_EQ(w.stats().pscHits, 1u);
}

TEST(Walker, ContigBitsSurfaceInResult)
{
    PageTable pt;
    pt.map(7, 9, 0);
    pt.setContigBit(7, true);
    Walker w(pt, noCaches());
    EXPECT_TRUE(w.walk(7).guestContigBit);
}

TEST(Walker, NestedWalkCostsUpTo24Refs)
{
    // Virtualized, no walker caches: guest 4 KiB leaf over host 4 KiB
    // backing costs 4 guest-node nested walks (4 refs each) + 4 guest
    // reads + final nested walk (4 refs) = up to 24 references.
    KernelConfig hcfg;
    hcfg.phys.bytesPerNode = 256ull << 20;
    hcfg.phys.numNodes = 1;
    hcfg.thpEnabled = false; // host backs with 4 KiB pages
    Kernel host(hcfg, std::make_unique<Base4kPolicy>());
    VmConfig vcfg;
    vcfg.guestBytesPerNode = 128ull << 20;
    vcfg.guestNodes = 1;
    vcfg.guestKernel.thpEnabled = false;
    VirtualMachine vm(host, std::make_unique<Base4kPolicy>(), vcfg);

    Process &p = vm.guest().createProcess("g");
    Vma &vma = p.mmap(1 << 20);
    p.touch(vma.start());

    Walker w(p.pageTable(), vm, noCaches());
    auto res = w.walk(vma.start().pageNumber());
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.refs, 24u);
}

TEST(Walker, NestedThpWalkIsCheaper)
{
    KernelConfig hcfg;
    hcfg.phys.bytesPerNode = 256ull << 20;
    hcfg.phys.numNodes = 1;
    Kernel host(hcfg, std::make_unique<DefaultThpPolicy>());
    VmConfig vcfg;
    vcfg.guestBytesPerNode = 128ull << 20;
    vcfg.guestNodes = 1;
    VirtualMachine vm(host, std::make_unique<DefaultThpPolicy>(), vcfg);

    Process &p = vm.guest().createProcess("g");
    Vma &vma = p.mmap(4 * kHugeSize);
    p.touch(vma.start());

    Walker w(p.pageTable(), vm, noCaches());
    auto res = w.walk(vma.start().pageNumber());
    EXPECT_TRUE(res.hit);
    // Guest 2M leaf (3 levels) x (3-ref nested + 1 read) + final
    // 3-ref nested walk = 15 refs.
    EXPECT_EQ(res.refs, 15u);
    EXPECT_EQ(res.mapping.order, kHugeOrder);
}

TEST(Walker, NestedTlbCutsRepeatWalks)
{
    KernelConfig hcfg;
    hcfg.phys.bytesPerNode = 256ull << 20;
    hcfg.phys.numNodes = 1;
    Kernel host(hcfg, std::make_unique<DefaultThpPolicy>());
    VmConfig vcfg;
    vcfg.guestBytesPerNode = 128ull << 20;
    vcfg.guestNodes = 1;
    VirtualMachine vm(host, std::make_unique<DefaultThpPolicy>(), vcfg);

    Process &p = vm.guest().createProcess("g");
    Vma &vma = p.mmap(4 * kHugeSize);
    p.touchRange(vma.start(), vma.bytes());

    WalkerConfig cfg;
    cfg.pscEnabled = true;
    cfg.nestedTlbEnabled = true;
    Walker w(p.pageTable(), vm, cfg);
    auto cold = w.walk(vma.start().pageNumber());
    auto warm = w.walk(vma.start().pageNumber() + 1);
    EXPECT_LT(warm.refs, cold.refs);
    EXPECT_GT(w.stats().nestedTlbHits, 0u);
}

TEST(Walker, PscLruEvictionRestoresColdRefs)
{
    // Three 4 KiB pages in three distinct 1 GiB regions against a
    // 2-entry PSC: the known-answer ref sequence pins both the hit
    // accounting and the LRU victim choice.
    PageTable pt;
    const Vpn a = 0, b = 1ull << 18, c = 2ull << 18;
    pt.map(a, 1, 0);
    pt.map(b, 2, 0);
    pt.map(c, 3, 0);
    WalkerConfig cfg = noCaches();
    cfg.pscEnabled = true;
    cfg.pscEntries = 2;
    Walker w(pt, cfg);
    EXPECT_EQ(w.walk(a).refs, 4u); // cold, fills {a}
    EXPECT_EQ(w.walk(b).refs, 4u); // cold, fills {a, b}
    EXPECT_EQ(w.walk(c).refs, 4u); // evicts a (LRU) -> {b, c}
    EXPECT_EQ(w.walk(a).refs, 4u); // a was evicted; evicts b -> {c, a}
    EXPECT_EQ(w.walk(c).refs, 2u); // c survived: root+L3 skipped
    EXPECT_EQ(w.stats().pscHits, 1u);
}

TEST(Walker, ZeroEntryPscIsFatal)
{
    // An empty PSC would probe past its lanes on the first walk; the
    // walker rejects it as a config error when it is built.
    PageTable pt;
    pt.map(0x1000, 1, 0);
    WalkerConfig cfg;
    cfg.pscEntries = 0;
    EXPECT_EXIT(Walker(pt, cfg).walk(0x1000), testing::ExitedWithCode(1),
                "at least one set and one way");
}

TEST(Walker, ZeroEntryNestedTlbIsFatal)
{
    // Likewise the nested TLB, which every 2-D walk probes.
    KernelConfig hcfg;
    hcfg.phys.bytesPerNode = 256ull << 20;
    hcfg.phys.numNodes = 1;
    Kernel host(hcfg, std::make_unique<DefaultThpPolicy>());
    VmConfig vcfg;
    vcfg.guestBytesPerNode = 128ull << 20;
    vcfg.guestNodes = 1;
    VirtualMachine vm(host, std::make_unique<DefaultThpPolicy>(), vcfg);
    Process &p = vm.guest().createProcess("g");
    Vma &vma = p.mmap(kHugeSize);
    p.touch(vma.start());
    WalkerConfig cfg;
    cfg.nestedTlbEntries = 0;
    EXPECT_EXIT(Walker(p.pageTable(), vm, cfg)
                    .walk(vma.start().pageNumber()),
                testing::ExitedWithCode(1), "at least one set and one way");
}

TEST(Walker, NestedTlbWarmWalkCostsGuestReadsOnly)
{
    // 2-D known answer, nested TLB on: once every gPA grain touched
    // by the walk is cached, a repeat walk pays exactly the 4 guest
    // node reads — all 5 nested translations hit and charge 0 refs.
    KernelConfig hcfg;
    hcfg.phys.bytesPerNode = 256ull << 20;
    hcfg.phys.numNodes = 1;
    hcfg.thpEnabled = false;
    Kernel host(hcfg, std::make_unique<Base4kPolicy>());
    VmConfig vcfg;
    vcfg.guestBytesPerNode = 128ull << 20;
    vcfg.guestNodes = 1;
    vcfg.guestKernel.thpEnabled = false;
    VirtualMachine vm(host, std::make_unique<Base4kPolicy>(), vcfg);
    Process &p = vm.guest().createProcess("g");
    Vma &vma = p.mmap(1 << 20);
    p.touch(vma.start());

    WalkerConfig cfg = noCaches();
    cfg.nestedTlbEnabled = true;
    cfg.nestedTlbEntries = 16;
    Walker w(p.pageTable(), vm, cfg);
    const Vpn vpn = vma.start().pageNumber();
    ASSERT_TRUE(w.walk(vpn).hit); // cold: fills all grains
    const std::uint64_t hits_before = w.stats().nestedTlbHits;
    auto warm = w.walk(vpn);
    EXPECT_EQ(warm.refs, 4u);
    EXPECT_EQ(warm.cycles, 4u * cfg.cyclesPerRef);
    EXPECT_EQ(w.stats().nestedTlbHits, hits_before + 5);

    // PSC on top: root+L3 guest reads skipped too -> 2 refs.
    WalkerConfig both = cfg;
    both.pscEnabled = true;
    Walker w2(p.pageTable(), vm, both);
    ASSERT_TRUE(w2.walk(vpn).hit);
    EXPECT_EQ(w2.walk(vpn).refs, 2u);
}

TEST(Walker, NestedTlbCapacityEvictionLosesCoverage)
{
    // Round-robin over 8 huge guest pages (8 distinct 2 MiB gPA
    // grains): a 1-entry nested TLB must evict on every data grain
    // switch, so it sees strictly fewer hits / more refs than a
    // 64-entry TLB over the identical walk sequence.
    KernelConfig hcfg;
    hcfg.phys.bytesPerNode = 256ull << 20;
    hcfg.phys.numNodes = 1;
    Kernel host(hcfg, std::make_unique<DefaultThpPolicy>());
    VmConfig vcfg;
    vcfg.guestBytesPerNode = 128ull << 20;
    vcfg.guestNodes = 1;
    VirtualMachine vm(host, std::make_unique<DefaultThpPolicy>(), vcfg);
    Process &p = vm.guest().createProcess("g");
    Vma &vma = p.mmap(8 * kHugeSize);
    p.touchRange(vma.start(), vma.bytes());

    WalkerConfig tiny_cfg = noCaches();
    tiny_cfg.nestedTlbEnabled = true;
    tiny_cfg.nestedTlbEntries = 1;
    WalkerConfig big_cfg = tiny_cfg;
    big_cfg.nestedTlbEntries = 64;
    Walker tiny(p.pageTable(), vm, tiny_cfg);
    Walker big(p.pageTable(), vm, big_cfg);
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t h = 0; h < 8; ++h) {
            const Vpn vpn = vma.start().pageNumber() + h * 512;
            tiny.walk(vpn);
            big.walk(vpn);
        }
    }
    EXPECT_EQ(tiny.stats().nestedTlbLookups,
              big.stats().nestedTlbLookups);
    EXPECT_LT(tiny.stats().nestedTlbHits, big.stats().nestedTlbHits);
    EXPECT_GT(tiny.stats().totalRefs, big.stats().totalRefs);
    EXPECT_GT(big.stats().nestedTlbHits, 0u);
}

TEST(Walker, MemoDropsStaleEpochsOnRemap)
{
    // The traversal memo must never serve a mapping from before a
    // table mutation: map/unmap bump PageTable::generation() and the
    // stale entry is dropped, not returned.
    PageTable pt;
    pt.map(5, 100, 0);
    WalkerConfig cfg = noCaches();
    cfg.memoEnabled = true;
    Walker w(pt, cfg);
    EXPECT_EQ(w.walk(5).mapping.pfn, 100u);
    EXPECT_EQ(w.walk(5).mapping.pfn, 100u); // served from the memo
    ASSERT_NE(w.memoStats(), nullptr);
    EXPECT_EQ(w.memoStats()->guestHits, 1u);

    pt.unmap(5, 0);
    pt.map(5, 200, 0);
    auto res = w.walk(5);
    EXPECT_EQ(res.mapping.pfn, 200u);
    EXPECT_EQ(res.refs, 4u); // a real re-walk, not a memo hit
    EXPECT_GE(w.memoStats()->staleDrops, 1u);
}

TEST(Walker, MissReturnsNoHit)
{
    PageTable pt;
    Walker w(pt, noCaches());
    auto res = w.walk(0xdead);
    EXPECT_FALSE(res.hit);
    EXPECT_GE(res.refs, 1u);
}
