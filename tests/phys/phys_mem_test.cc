#include <gtest/gtest.h>

#include <type_traits>

#include "phys/phys_mem.hh"

using namespace contig;

namespace
{

PhysMemConfig
smallConfig(unsigned nodes = 2)
{
    PhysMemConfig cfg;
    cfg.bytesPerNode = 64ull << 20; // 64 MiB per node
    cfg.numNodes = nodes;
    return cfg;
}

} // namespace

TEST(PhysMem, Construction)
{
    PhysicalMemory pm(smallConfig());
    EXPECT_EQ(pm.numNodes(), 2u);
    EXPECT_EQ(pm.totalBytes(), 128ull << 20);
    EXPECT_EQ(pm.freePages(), pm.totalFrames());
}

TEST(PhysMem, ZoneOwnership)
{
    PhysicalMemory pm(smallConfig());
    const std::uint64_t per_node = pm.totalFrames() / 2;
    EXPECT_EQ(pm.zoneOf(0).node(), 0u);
    EXPECT_EQ(pm.zoneOf(per_node - 1).node(), 0u);
    EXPECT_EQ(pm.zoneOf(per_node).node(), 1u);
}

TEST(PhysMem, NodePreference)
{
    PhysicalMemory pm(smallConfig());
    auto a = pm.alloc(0, 0);
    auto b = pm.alloc(0, 1);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(pm.zoneOf(*a).node(), 0u);
    EXPECT_EQ(pm.zoneOf(*b).node(), 1u);
}

TEST(PhysMem, SpillsToSecondNode)
{
    PhysicalMemory pm(smallConfig());
    // Exhaust node 0 with top-order allocations.
    const std::uint64_t blocks =
        (64ull << 20) / (pagesInOrder(kMaxOrder) * kPageSize);
    for (std::uint64_t i = 0; i < blocks; ++i)
        ASSERT_TRUE(pm.zone(0).buddy().alloc(kMaxOrder));
    // A node-0-preferring request must now land on node 1.
    auto pfn = pm.alloc(0, 0);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(pm.zoneOf(*pfn).node(), 1u);
}

TEST(PhysMem, ExhaustionFails)
{
    PhysicalMemory pm(smallConfig(1));
    const std::uint64_t blocks =
        (64ull << 20) / (pagesInOrder(kMaxOrder) * kPageSize);
    for (std::uint64_t i = 0; i < blocks; ++i)
        ASSERT_TRUE(pm.alloc(kMaxOrder));
    EXPECT_FALSE(pm.alloc(0));
}

TEST(PhysMem, FreeClustersAggregatesZones)
{
    PhysicalMemory pm(smallConfig());
    auto clusters = pm.freeClusters();
    // Fresh machine: one maximal cluster per zone.
    ASSERT_EQ(clusters.size(), 2u);
    EXPECT_EQ(clusters[0].pages + clusters[1].pages, pm.totalFrames());
}

TEST(PhysMem, AllocSpecificAcrossZones)
{
    PhysicalMemory pm(smallConfig());
    const std::uint64_t per_node = pm.totalFrames() / 2;
    Pfn target = per_node + 77; // inside node 1
    EXPECT_TRUE(pm.allocSpecific(target, 0));
    EXPECT_FALSE(pm.isFreePage(target));
    pm.free(target, 0);
    EXPECT_TRUE(pm.isFreePage(target));
}

TEST(PhysMem, ContigMapTracksBuddy)
{
    PhysicalMemory pm(smallConfig(1));
    auto &zone = pm.zone(0);
    const std::uint64_t top_pages = pagesInOrder(kMaxOrder);
    EXPECT_EQ(zone.contigMap().freePagesTracked(), zone.numFrames());

    // Allocating one base page removes one top block from the map.
    auto pfn = pm.alloc(0);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(zone.contigMap().freePagesTracked(),
              zone.numFrames() - top_pages);
    // Freeing restores it.
    pm.free(*pfn, 0);
    EXPECT_EQ(zone.contigMap().freePagesTracked(), zone.numFrames());
    EXPECT_TRUE(zone.contigMap().checkInvariants());
}

// --- lazily zero-filled mem_map -------------------------------------

static_assert(std::is_trivially_destructible_v<Frame>,
              "FrameArray unmaps the mem_map without running destructors");

namespace
{

/** Every field of a frame holds its zero (free, unlisted, unowned). */
void
expectAllZero(const Frame &f)
{
    EXPECT_EQ(f.refCount, 0u);
    EXPECT_EQ(f.mapCount, 0u);
    EXPECT_EQ(f.ownerId, 0u);
    EXPECT_EQ(f.order, 0u);
    EXPECT_EQ(f.claimOrder, 0u);
    EXPECT_EQ(f.lruOrder, 0u);
    EXPECT_FALSE(f.freeHead);
    EXPECT_FALSE(f.referenced);
    EXPECT_EQ(f.ownerKind, FrameOwner::None);
    EXPECT_EQ(f.lruList, Frame::LruList::None);
    EXPECT_EQ(Pfn{f.next}, 0u);
    EXPECT_EQ(Pfn{f.prev}, 0u);
    EXPECT_EQ(f.ownerVaddr, 0u);
}

} // namespace

TEST(FrameDefaults, DefaultFrameIsAllZero)
{
    const Frame f{};
    expectAllZero(f);
}

TEST(FrameDefaults, FreshFrameArrayIsAllZero)
{
    FrameArray frames(3 * pagesInOrder(kMaxOrder) + 5);
    for (Pfn p = 0; p < frames.size(); p += 97)
        expectAllZero(frames[p]);
    expectAllZero(frames[frames.size() - 1]);
}

TEST(FrameLink, RoundTripsEveryLinkablePfn)
{
    // pfn 0, the last pfn of the largest mem_map, and "no frame".
    const Pfn last = FrameArray::kMaxFrames - 1;
    EXPECT_EQ(last, (Pfn{1} << 32) - 2);
    for (const Pfn pfn : {Pfn{0}, last, kInvalidPfn}) {
        Frame f;
        f.next = pfn;
        f.prev = pfn;
        EXPECT_EQ(Pfn{f.next}, pfn);
        EXPECT_EQ(Pfn{f.prev}, pfn);
        // Writing the links touched no other field.
        f.next = 0;
        f.prev = 0;
        expectAllZero(f);
    }
}

TEST(FrameDeathTest, LinkRefusesAnUnlinkablePfn)
{
    Frame f;
    EXPECT_DEATH(f.next = Pfn{FrameLink::kNone}, "does not fit a frame link");
    EXPECT_DEATH(f.prev = Pfn{1} << 32, "does not fit a frame link");
}

TEST(FrameDeathTest, ArrayRefusesMoreFramesThanALinkCanName)
{
    // The check comes before the mmap, so this maps nothing.
    EXPECT_EXIT({ FrameArray frames(std::uint64_t{1} << 32); },
                testing::ExitedWithCode(1),
                "mem_map of 4294967296 frames");
}

TEST(PhysMem, FreshMachineIsFreeAndUnowned)
{
    PhysicalMemory pm(smallConfig());
    EXPECT_EQ(pm.freePages(), pm.totalFrames());
    for (Pfn p = 0; p < pm.totalFrames(); ++p) {
        ASSERT_TRUE(pm.isFreePage(p)) << "pfn " << p;
        const Frame &f = pm.frame(p);
        ASSERT_EQ(f.ownerKind, FrameOwner::None) << "pfn " << p;
        ASSERT_EQ(f.refCount, 0u) << "pfn " << p;
        ASSERT_EQ(f.mapCount, 0u) << "pfn " << p;
    }
    for (unsigned n = 0; n < pm.numNodes(); ++n) {
        EXPECT_TRUE(pm.zone(n).buddy().checkInvariants());
        EXPECT_TRUE(pm.zone(n).contigMap().checkInvariants());
    }
}

TEST(PhysMemDeathTest, DoubleFreeStillFires)
{
    PhysicalMemory pm(smallConfig(1));
    auto pfn = pm.alloc(kHugeOrder);
    ASSERT_TRUE(pfn);
    pm.free(*pfn, kHugeOrder);
    // The block's occupancy bits are clear again, so a second free of
    // the same block must trip the buddy's double-free check.
    EXPECT_DEATH(pm.free(*pfn, kHugeOrder), "double free");
    // A never-allocated frame reads as free from the start.
    EXPECT_DEATH(pm.free(pm.totalFrames() - 1, 0), "double free");
}

TEST(PhysMemDeathTest, FreeOfPartlyFreedBlockFires)
{
    PhysicalMemory pm(smallConfig(1));
    auto pfn = pm.alloc(kHugeOrder);
    ASSERT_TRUE(pfn);
    // One sub-page goes back on its own; the head stays allocated.
    pm.free(*pfn + 5, 0);
    // Freeing the whole block would return that page twice.
    EXPECT_DEATH(pm.free(*pfn, kHugeOrder), "double free");
}

// The buddy free lists and the LRU share one link pair per frame, so
// each list refuses a head the other one holds.

TEST(PhysMemDeathTest, FreeOfLruListedHeadFires)
{
    PhysicalMemory pm(smallConfig(1));
    Zone &zone = pm.zone(0);
    const auto pfn = zone.buddy().alloc(0);
    ASSERT_TRUE(pfn);
    zone.lruInsert(Frame::LruList::Inactive, *pfn, 0);
    // Freed straight through the buddy, bypassing the kernel's unlist
    // (ReclaimEngine::onFree): the merged block's head is still listed.
    ASSERT_EQ(*pfn, zone.basePfn());
    EXPECT_DEATH(zone.buddy().free(*pfn, 0),
                 "free-list insert of LRU-listed pfn");
}

TEST(PhysMemDeathTest, LruInsertOfFreeHeadFires)
{
    PhysicalMemory pm(smallConfig(1));
    Zone &zone = pm.zone(0);
    const Pfn head = zone.basePfn();
    ASSERT_TRUE(pm.frame(head).freeHead);
    EXPECT_DEATH(zone.lruInsert(Frame::LruList::Inactive, head, 0),
                 "lru insert of free-list head");
}
