#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/align.hh"
#include "base/rng.hh"
#include "mm/kernel.hh"
#include "mm/migrate.hh"
#include "policies/eager.hh"
#include "policies/ideal.hh"
#include "policies/ingens.hh"
#include "policies/ranger.hh"

using namespace contig;

namespace
{

KernelConfig
smallConfig(unsigned max_order = kMaxOrder)
{
    KernelConfig cfg;
    cfg.phys.bytesPerNode = 256ull << 20;
    cfg.phys.numNodes = 2;
    cfg.phys.zone.maxOrder = max_order;
    cfg.tickPeriodFaults = 64;
    return cfg;
}

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
        if (have && off == last_off && vpn == last_end)
            cur += n;
        else
            cur = n;
        last_off = off;
        last_end = vpn + n;
        have = true;
        best = std::max(best, cur);
    });
    return best;
}

} // namespace

TEST(Eager, PreallocatesWholeVmaAtMmap)
{
    auto policy = std::make_unique<EagerPolicy>();
    auto *eager = policy.get();
    // Eager paging runs with a raised MAX_ORDER (here 64 MiB blocks).
    Kernel k(smallConfig(kMaxOrder + 3), std::move(policy));
    Process &p = k.createProcess("t");

    const std::uint64_t bytes = 32ull << 20;
    Vma &vma = p.mmap(bytes);
    // Everything is backed before any touch.
    EXPECT_EQ(vma.allocatedPages, bytes >> kPageShift);
    EXPECT_EQ(eager->stats().preallocatedPages, bytes >> kPageShift);
    EXPECT_EQ(largestContiguousRun(p), bytes >> kPageShift);

    // Touching afterwards raises no faults.
    const std::uint64_t faults = k.faultStats().faults;
    p.touchRange(vma.start(), bytes);
    EXPECT_EQ(k.faultStats().faults, faults);
}

TEST(Eager, BloatEqualsUntouchedPages)
{
    Kernel k(smallConfig(kMaxOrder + 3), std::make_unique<EagerPolicy>());
    Process &p = k.createProcess("t");
    Vma &vma = p.mmap(32ull << 20);
    p.touchRange(vma.start(), 1ull << 20); // touch 1/32 of it
    EXPECT_EQ(vma.allocatedPages, (32ull << 20) >> kPageShift);
    EXPECT_EQ(vma.touchedPages, (1ull << 20) >> kPageShift);
}

TEST(Eager, MmapLatencyDominatesTail)
{
    Kernel k(smallConfig(kMaxOrder + 3), std::make_unique<EagerPolicy>());
    Process &p = k.createProcess("t");
    p.mmap(64ull << 20);
    // One giant zeroing event: far beyond a normal fault's latency.
    double p99 = k.faultStats().latencyUs.quantile(0.99);
    double normal = (k.config().faultBaseCycles +
                     512 * k.config().zeroCyclesPerPage) /
                    k.config().cyclesPerUs;
    EXPECT_GT(p99, 20 * normal);
}

TEST(Eager, FragmentationForcesSmallBlocks)
{
    auto policy = std::make_unique<EagerPolicy>();
    auto *eager = policy.get();
    Kernel k(smallConfig(kMaxOrder + 3), std::move(policy));

    // Fragment: allocate every top block, free every other huge chunk.
    PhysicalMemory &pm = k.physMem();
    std::vector<Pfn> blocks;
    while (auto b = pm.alloc(kMaxOrder + 3))
        blocks.push_back(*b);
    for (Pfn b : blocks) {
        // Free alternating 2 MiB halves within each block.
        for (std::uint64_t off = 0; off < pagesInOrder(kMaxOrder + 3);
             off += 2 * pagesInOrder(kHugeOrder)) {
            pm.free(b + off, kHugeOrder);
        }
    }

    Process &p = k.createProcess("t");
    Vma &vma = p.mmap(8ull << 20);
    EXPECT_EQ(vma.allocatedPages, (8ull << 20) >> kPageShift);
    // The pre-allocation had to be stitched from many small blocks, so
    // the largest contiguous mapping is just one huge page.
    EXPECT_EQ(largestContiguousRun(p), pagesInOrder(kHugeOrder));
    // 8 MiB had to be stitched from four separate 2 MiB blocks.
    EXPECT_EQ(eager->stats().blocks, 4u);
}

TEST(Ingens, PromotesUtilizedRegionsAsynchronously)
{
    auto policy = std::make_unique<IngensPolicy>();
    auto *ingens = policy.get();
    KernelConfig cfg = smallConfig();
    Kernel k(cfg, std::move(policy));
    Process &p = k.createProcess("t");

    Vma &vma = p.mmap(4 * kHugeSize);
    // Ingens allocates 4 KiB pages only.
    p.touchRange(vma.start(), 4 * kHugeSize);
    EXPECT_EQ(k.faultStats().hugeFaults, 0u);
    // The daemon ran during the touches (tick every 64 faults) and
    // promoted fully-utilized regions.
    EXPECT_GT(ingens->stats().promotions, 0u);
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    EXPECT_EQ(m->order, kHugeOrder);
}

TEST(Ingens, SkipsUnderUtilizedRegions)
{
    auto policy = std::make_unique<IngensPolicy>();
    auto *ingens = policy.get();
    Kernel k(smallConfig(), std::move(policy));
    Process &p = k.createProcess("t");

    Vma &vma = p.mmap(16 * kHugeSize);
    // Touch only 10% of each huge region: below the 90% threshold.
    for (std::uint64_t h = 0; h < 16; ++h)
        p.touchRange(vma.start() + h * kHugeSize, 51 * kPageSize);
    // Force several daemon runs.
    for (int i = 0; i < 10; ++i)
        k.policy().onTick(k);
    EXPECT_EQ(ingens->stats().promotions, 0u);
}

namespace
{

/** Per-region touched counts recomputed from the page bitmap. */
std::vector<std::uint16_t>
recountRegions(const Vma &vma)
{
    const std::uint64_t hp = pagesInOrder(kHugeOrder);
    const Vpn start = vma.start().pageNumber();
    const Vpn end = start + vma.pages();
    std::vector<std::uint16_t> out;
    for (Vpn base = alignUp(start, hp); base + hp <= end; base += hp) {
        std::uint16_t n = 0;
        for (std::uint64_t i = 0; i < hp; ++i)
            n += vma.touchedBitmap[base - start + i];
        out.push_back(n);
    }
    return out;
}

/**
 * The Ingens scan as it was before per-region counts: look the region
 * up first, then count its 512 touched bits from the bitmap.
 */
void
rescanTick(Kernel &k, const IngensConfig &cfg, IngensStats &st)
{
    unsigned budget = cfg.promotionsPerTick;
    const std::uint64_t hp = pagesInOrder(kHugeOrder);
    const auto needed =
        static_cast<std::uint64_t>(cfg.utilizationThreshold * hp);
    k.forEachProcess([&](Process &proc) {
        if (budget == 0)
            return;
        proc.addressSpace().forEachVma([&](Vma &vma) {
            if (budget == 0 || vma.kind() == VmaKind::File)
                return;
            ++st.scans;
            const Vpn start = vma.start().pageNumber();
            const Vpn end = start + vma.pages();
            for (Vpn base = alignUp(start, hp);
                 base + hp <= end && budget > 0; base += hp) {
                auto m = proc.pageTable().lookup(base);
                if (m && m->order == kHugeOrder)
                    continue;
                if (vma.touchedBitmap.empty())
                    continue;
                std::uint64_t touched = 0;
                for (std::uint64_t i = 0; i < hp; ++i)
                    touched += vma.touchedBitmap[base - start + i];
                if (touched < needed)
                    continue;
                if (promoteHuge(k, proc, base)) {
                    ++st.promotions;
                    --budget;
                } else {
                    ++st.promotionFailures;
                }
            }
        });
    });
}

/** Huge-aligned start of a region well above the mmap cursor. */
constexpr Addr kFarBase = Addr{0x7700} << 32;

/** Map an anonymous VMA at an explicit (possibly unaligned) address. */
Vma &
mmapAt(Process &p, Addr start, std::uint64_t bytes)
{
    return p.addressSpace().mmap(bytes, VmaKind::Anon, Gva{start});
}

/** Base vpns of every huge leaf in a process, ascending. */
std::vector<Vpn>
hugeLeaves(const Process &p)
{
    std::vector<Vpn> out;
    p.pageTable().forEachLeaf([&](Vpn vpn, const Mapping &m) {
        if (m.order == kHugeOrder)
            out.push_back(vpn);
    });
    return out;
}

} // namespace

TEST(Ingens, UnalignedHeadPagesCountTowardNoRegion)
{
    Kernel k(smallConfig(), std::make_unique<IngensPolicy>());
    Process &p = k.createProcess("t");
    // Starts 7 pages into a 2 MiB region, ends 100 pages into another:
    // three whole regions lie between the partial head and tail.
    const std::uint64_t head = pagesInOrder(kHugeOrder) - 7;
    Vma &vma = mmapAt(p, kFarBase + 7 * kPageSize,
                      (head + 3 * 512 + 100) * kPageSize);
    const Vpn start = vma.start().pageNumber();
    EXPECT_EQ(vma.hugeRegions(), 3u);
    EXPECT_EQ(vma.hugeRegionBase(0), start + head);

    for (std::uint64_t i = 0; i < head; ++i)
        p.noteTouched(vma, start + i);
    ASSERT_EQ(vma.hugeTouched.size(), 3u);
    EXPECT_EQ(vma.hugeTouched, std::vector<std::uint16_t>(3, 0));
    // The partial tail counts toward no region either.
    for (std::uint64_t i = 0; i < 100; ++i)
        p.noteTouched(vma, start + head + 3 * 512 + i);
    EXPECT_EQ(vma.hugeTouched, std::vector<std::uint16_t>(3, 0));
    EXPECT_EQ(vma.touchedPages, head + 100);

    p.noteTouched(vma, start + head);
    p.noteTouched(vma, start + head + 2 * 512 + 511);
    EXPECT_EQ(vma.hugeTouched, (std::vector<std::uint16_t>{1, 0, 1}));
}

TEST(Ingens, RegionCountsMatchBitmapRecount)
{
    Kernel k(smallConfig(), std::make_unique<IngensPolicy>());
    Process &p = k.createProcess("t");
    Vma &vma = mmapAt(p, kFarBase + 300 * kPageSize, 9 * kHugeSize);
    const Vpn start = vma.start().pageNumber();
    Rng rng(42);
    // Random touches with plenty of repeats (4x the VMA's page count).
    for (std::uint64_t i = 0; i < 4 * vma.pages(); ++i) {
        p.noteTouched(vma, start + rng.below(vma.pages()));
        if (i % 997 == 0) {
            ASSERT_EQ(vma.hugeTouched, recountRegions(vma))
                << "touch " << i;
        }
    }
    EXPECT_EQ(vma.hugeTouched, recountRegions(vma));
    std::uint64_t bits = 0;
    for (bool b : vma.touchedBitmap)
        bits += b;
    EXPECT_EQ(vma.touchedPages, bits);
}

TEST(Ingens, OnTickMatchesBitmapRescanReference)
{
    // Two identical machines see the same seeded touch order; one is
    // scanned by IngensPolicy::onTick, the other by the bitmap-rescan
    // reference. A small budget makes the per-tick promotion sets pin
    // the promotion order; regions past the threshold but not fully
    // mapped make promoteHuge fail along the way. Ticking every 8
    // touches lands ticks on regions sitting exactly at the threshold.
    IngensConfig icfg;
    icfg.promotionsPerTick = 2;
    KernelConfig cfg = smallConfig();
    cfg.tickPeriodFaults = ~std::uint64_t{0} >> 1; // ticks driven here

    struct Rig
    {
        IngensPolicy *ingens = nullptr;
        std::unique_ptr<Kernel> k;
        std::vector<Process *> procs;
        std::vector<Vma *> vmas;
    };
    auto make_rig = [&] {
        Rig r;
        auto policy = std::make_unique<IngensPolicy>(icfg);
        r.ingens = policy.get();
        r.k = std::make_unique<Kernel>(cfg, std::move(policy));
        Process &a = r.k->createProcess("a");
        Process &b = r.k->createProcess("b");
        r.procs = {&a, &b};
        r.vmas = {&mmapAt(a, kFarBase + 5 * kPageSize, 5 * kHugeSize),
                  &a.mmap(3 * kHugeSize),
                  &mmapAt(b, kFarBase + 511 * kPageSize, 4 * kHugeSize)};
        return r;
    };
    Rig live = make_rig();
    Rig ref = make_rig();
    IngensStats ref_stats;

    // Seeded touch order over every page of every VMA, with repeats.
    std::vector<std::pair<std::size_t, Vpn>> order;
    for (std::size_t v = 0; v < live.vmas.size(); ++v) {
        const Vma &vma = *live.vmas[v];
        for (std::uint64_t i = 0; i < vma.pages(); ++i)
            order.emplace_back(v, vma.start().pageNumber() + i);
    }
    Rng rng(7);
    const std::size_t distinct = order.size();
    for (std::size_t i = 0; i < distinct / 4; ++i)
        order.push_back(order[rng.below(distinct)]);
    rng.shuffle(order);

    const std::size_t proc_of[] = {0, 0, 1};
    std::size_t ticks = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto [v, vpn] = order[i];
        for (Rig *r : {&live, &ref})
            r->procs[proc_of[v]]->touch(Gva{vpn << kPageShift});
        if (i % 8 != 7 && i + 1 != order.size())
            continue;
        live.ingens->onTick(*live.k);
        rescanTick(*ref.k, icfg, ref_stats);
        ++ticks;
        const IngensStats &got = live.ingens->stats();
        ASSERT_EQ(got.promotions, ref_stats.promotions) << "tick " << ticks;
        ASSERT_EQ(got.promotionFailures, ref_stats.promotionFailures)
            << "tick " << ticks;
        ASSERT_EQ(got.scans, ref_stats.scans) << "tick " << ticks;
        for (std::size_t pi = 0; pi < 2; ++pi) {
            ASSERT_EQ(hugeLeaves(*live.procs[pi]),
                      hugeLeaves(*ref.procs[pi]))
                << "tick " << ticks << " proc " << pi;
        }
    }
    // Drain: keep ticking until both stop promoting.
    for (int t = 0; t < 16; ++t) {
        live.ingens->onTick(*live.k);
        rescanTick(*ref.k, icfg, ref_stats);
    }
    const IngensStats &got = live.ingens->stats();
    EXPECT_EQ(got.promotions, ref_stats.promotions);
    EXPECT_EQ(got.promotionFailures, ref_stats.promotionFailures);
    for (std::size_t pi = 0; pi < 2; ++pi)
        EXPECT_EQ(hugeLeaves(*live.procs[pi]), hugeLeaves(*ref.procs[pi]));
    // The run exercised both outcomes, and every whole region that was
    // fully touched ended up huge (4 + 3 + 3 whole regions).
    EXPECT_GT(ref_stats.promotionFailures, 0u);
    EXPECT_EQ(ref_stats.promotions, 4u + 3u + 3u);
    for (const Vma *vma : live.vmas)
        EXPECT_EQ(vma->hugeTouched, recountRegions(*vma));
}

TEST(Ranger, CoalescesAsynchronously)
{
    auto policy = std::make_unique<RangerPolicy>();
    auto *ranger = policy.get();
    KernelConfig cfg = smallConfig();
    cfg.tickPeriodFaults = 1000000; // keep the daemon off during setup
    Kernel k(cfg, std::move(policy));
    Process &p = k.createProcess("t");

    // Scatter the VMA: allocate with default THP while another
    // allocation interleaves, so frames are not contiguous.
    Vma &vma = p.mmap(16 * kHugeSize);
    Process &noise = k.createProcess("noise");
    Vma &nv = noise.mmap(16 * kHugeSize);
    for (std::uint64_t i = 0; i < 16; ++i) {
        p.touch(vma.start() + i * kHugeSize);
        noise.touch(nv.start() + i * kHugeSize);
    }
    const std::uint64_t before = largestContiguousRun(p);
    ASSERT_LT(before, 16u * 512);

    // Run defrag epochs until stable.
    for (int i = 0; i < 50; ++i)
        k.policy().onTick(k);
    EXPECT_EQ(largestContiguousRun(p), 16u * 512);
    EXPECT_GT(ranger->stats().migratedPages, 0u);
    EXPECT_GT(k.counters().get("migrate.shootdowns"), 0u);
}

TEST(Ranger, MigrationBudgetLimitsEpochWork)
{
    RangerConfig rcfg;
    rcfg.pagesPerEpoch = 512; // one huge page per epoch
    auto policy = std::make_unique<RangerPolicy>(rcfg);
    auto *ranger = policy.get();
    KernelConfig cfg = smallConfig();
    cfg.tickPeriodFaults = 1000000;
    Kernel k(cfg, std::move(policy));
    Process &p = k.createProcess("t");
    Process &noise = k.createProcess("noise");

    Vma &vma = p.mmap(8 * kHugeSize);
    Vma &nv = noise.mmap(8 * kHugeSize);
    for (std::uint64_t i = 0; i < 8; ++i) {
        p.touch(vma.start() + i * kHugeSize);
        noise.touch(nv.start() + i * kHugeSize);
    }
    k.policy().onTick(k);
    EXPECT_LE(ranger->stats().migratedPages, 512u);
}

TEST(Ideal, OfflineAssignmentIsContiguous)
{
    auto policy = std::make_unique<IdealPolicy>();
    Kernel k(smallConfig(), std::move(policy));
    Process &p = k.createProcess("t");
    Vma &vma = p.mmap(32 * kHugeSize);
    // Offset assigned at mmap time, before any fault.
    EXPECT_EQ(vma.caOffsetCount(), 1u);
    p.touchRange(vma.start(), vma.bytes());
    EXPECT_EQ(largestContiguousRun(p), 32u * 512);
}

TEST(Ideal, BestFitPicksTightestHole)
{
    auto policy = std::make_unique<IdealPolicy>();
    Kernel k(smallConfig(), std::move(policy));
    PhysicalMemory &pm = k.physMem();

    // Create the process first so its page-table pool chunk comes from
    // low memory, before we shape the holes.
    Process &p = k.createProcess("t");

    // Carve node 0 into two holes: a tight one (16 MiB) and the rest.
    // Hole A: blocks [2, 4) stay free; occupy blocks [0,2) and [4,6).
    const std::uint64_t top = pagesInOrder(kMaxOrder);
    for (std::uint64_t b : {0ull, 1ull, 4ull, 5ull}) {
        // The pool chunk may already sit inside block 0; occupy the
        // rest of each block piecewise.
        for (std::uint64_t off = 0; off < top;
             off += pagesInOrder(kHugeOrder)) {
            if (pm.isFreePage(b * top + off)) {
                ASSERT_TRUE(
                    pm.allocSpecific(b * top + off, kHugeOrder));
            }
        }
    }
    Vma &vma = p.mmap(2 * top * kPageSize); // exactly the tight hole
    p.touchRange(vma.start(), vma.bytes());
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pfn, 2 * top); // placed into the tight hole
    EXPECT_EQ(largestContiguousRun(p), 2 * top);
}
