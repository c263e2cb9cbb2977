#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "phys/buddy.hh"

using namespace contig;

namespace
{

constexpr std::uint64_t kZoneFrames = 8 * pagesInOrder(kMaxOrder); // 32 MiB

struct BuddyTest : public ::testing::Test
{
    BuddyTest() : frames(kZoneFrames), buddy(frames, 0, kZoneFrames) {}

    FrameArray frames;
    BuddyAllocator buddy;
};

} // namespace

TEST_F(BuddyTest, InitialStateAllFree)
{
    EXPECT_EQ(buddy.freePages(), kZoneFrames);
    EXPECT_EQ(buddy.freeBlocks(kMaxOrder), 8u);
    EXPECT_TRUE(buddy.checkInvariants());
}

TEST_F(BuddyTest, AllocBasePage)
{
    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(buddy.freePages(), kZoneFrames - 1);
    EXPECT_FALSE(buddy.isFreePage(*pfn));
    EXPECT_TRUE(buddy.checkInvariants());
}

TEST_F(BuddyTest, AllocHugePage)
{
    auto pfn = buddy.alloc(kHugeOrder);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(*pfn % pagesInOrder(kHugeOrder), 0u);
    EXPECT_EQ(buddy.freePages(), kZoneFrames - 512);
    for (Pfn p = *pfn; p < *pfn + 512; ++p)
        EXPECT_FALSE(buddy.isFreePage(p));
    EXPECT_TRUE(buddy.checkInvariants());
}

TEST_F(BuddyTest, FreeCoalescesBackToTopOrder)
{
    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn);
    buddy.free(*pfn, 0);
    EXPECT_EQ(buddy.freePages(), kZoneFrames);
    EXPECT_EQ(buddy.freeBlocks(kMaxOrder), 8u);
    for (unsigned o = 0; o < kMaxOrder; ++o)
        EXPECT_EQ(buddy.freeBlocks(o), 0u);
    EXPECT_TRUE(buddy.checkInvariants());
}

TEST_F(BuddyTest, SplitProducesAllOrders)
{
    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn);
    // Splitting one top block down to order 0 leaves one free block at
    // every order below the top.
    for (unsigned o = 0; o < kMaxOrder; ++o)
        EXPECT_EQ(buddy.freeBlocks(o), 1u) << "order " << o;
    EXPECT_EQ(buddy.freeBlocks(kMaxOrder), 7u);
}

TEST_F(BuddyTest, ExhaustionReturnsNullopt)
{
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(buddy.alloc(kMaxOrder));
    EXPECT_FALSE(buddy.alloc(kMaxOrder));
    EXPECT_FALSE(buddy.alloc(0));
    EXPECT_EQ(buddy.freePages(), 0u);
}

TEST_F(BuddyTest, AllocSpecificFreeTarget)
{
    // Pick a page in the middle of the zone.
    Pfn target = 3 * pagesInOrder(kMaxOrder) + 1234;
    EXPECT_TRUE(buddy.isFreePage(target));
    EXPECT_TRUE(buddy.allocSpecific(target, 0));
    EXPECT_FALSE(buddy.isFreePage(target));
    EXPECT_EQ(buddy.freePages(), kZoneFrames - 1);
    EXPECT_TRUE(buddy.checkInvariants());
}

TEST_F(BuddyTest, AllocSpecificOccupiedTargetFails)
{
    Pfn target = 100;
    ASSERT_TRUE(buddy.allocSpecific(target, 0));
    EXPECT_FALSE(buddy.allocSpecific(target, 0));
    EXPECT_EQ(buddy.stats().allocSpecificFailures, 1u);
}

TEST_F(BuddyTest, AllocSpecificHuge)
{
    Pfn target = 5 * pagesInOrder(kMaxOrder) + 512;
    EXPECT_TRUE(buddy.allocSpecific(target, kHugeOrder));
    for (Pfn p = target; p < target + 512; ++p)
        EXPECT_FALSE(buddy.isFreePage(p));
    EXPECT_TRUE(buddy.checkInvariants());
}

TEST_F(BuddyTest, AllocSpecificPartiallyFreeBlockFails)
{
    // Occupy one base page inside a huge range; the huge allocSpecific
    // covering it must fail.
    Pfn base = 2 * pagesInOrder(kMaxOrder);
    ASSERT_TRUE(buddy.allocSpecific(base + 5, 0));
    EXPECT_FALSE(buddy.allocSpecific(base, kHugeOrder));
}

TEST_F(BuddyTest, EnclosingFreeBlock)
{
    auto enc = buddy.enclosingFreeBlock(1000);
    ASSERT_TRUE(enc);
    EXPECT_EQ(enc->first, 0u);
    EXPECT_EQ(enc->second, kMaxOrder);

    ASSERT_TRUE(buddy.allocSpecific(1000, 0));
    EXPECT_FALSE(buddy.enclosingFreeBlock(1000));
    // Neighbour is still free but now in a smaller block.
    auto enc2 = buddy.enclosingFreeBlock(1001);
    ASSERT_TRUE(enc2);
    EXPECT_LT(enc2->second, kMaxOrder);
}

TEST_F(BuddyTest, FreeRecoalescesAfterSpecificAlloc)
{
    Pfn target = 7 * pagesInOrder(kMaxOrder) + 321;
    ASSERT_TRUE(buddy.allocSpecific(target, 0));
    buddy.free(target, 0);
    EXPECT_EQ(buddy.freeBlocks(kMaxOrder), 8u);
    EXPECT_TRUE(buddy.checkInvariants());
}

TEST_F(BuddyTest, SortedTopListStaysSorted)
{
    // Allocate a few top blocks, free them out of order, and verify
    // the top list remains ascending (checkInvariants verifies order).
    auto a = buddy.alloc(kMaxOrder);
    auto b = buddy.alloc(kMaxOrder);
    auto c = buddy.alloc(kMaxOrder);
    ASSERT_TRUE(a && b && c);
    buddy.free(*b, kMaxOrder);
    EXPECT_TRUE(buddy.checkInvariants());
    buddy.free(*c, kMaxOrder);
    EXPECT_TRUE(buddy.checkInvariants());
    buddy.free(*a, kMaxOrder);
    EXPECT_TRUE(buddy.checkInvariants());
    EXPECT_EQ(buddy.freeBlocks(kMaxOrder), 8u);
}

TEST(BuddyZoneBase, NonZeroBaseWorks)
{
    const std::uint64_t n = 2 * pagesInOrder(kMaxOrder);
    FrameArray frames(2 * n);
    BuddyAllocator buddy(frames, n, n);
    auto pfn = buddy.alloc(kHugeOrder);
    ASSERT_TRUE(pfn);
    EXPECT_GE(*pfn, n);
    buddy.free(*pfn, kHugeOrder);
    EXPECT_EQ(buddy.freeBlocks(kMaxOrder), 2u);
    EXPECT_TRUE(buddy.checkInvariants());
}

TEST(BuddyHooks, TopListHooksFire)
{
    const std::uint64_t n = 2 * pagesInOrder(kMaxOrder);
    FrameArray frames(n);
    BuddyAllocator buddy(frames, 0, n);
    std::multiset<Pfn> live;
    buddy.setTopListHooks([&](Pfn p) { live.insert(p); },
                          [&](Pfn p) { live.erase(live.find(p)); });
    // Replay on subscribe: both seeded blocks reported.
    EXPECT_EQ(live.size(), 2u);

    auto pfn = buddy.alloc(0); // splits one top block
    ASSERT_TRUE(pfn);
    EXPECT_EQ(live.size(), 1u);
    buddy.free(*pfn, 0); // re-coalesces into a top block
    EXPECT_EQ(live.size(), 2u);
}

TEST(BuddyMaxOrder, RaisedMaxOrderAllowsBiggerBlocks)
{
    // Eager paging raises MAX_ORDER; check the allocator handles a
    // 16 MiB top order.
    const unsigned big_order = kMaxOrder + 2;
    const std::uint64_t n = 2 * pagesInOrder(big_order);
    FrameArray frames(n);
    BuddyAllocator buddy(frames, 0, n, big_order);
    auto pfn = buddy.alloc(big_order);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(buddy.freePages(), n - pagesInOrder(big_order));
    buddy.free(*pfn, big_order);
    EXPECT_TRUE(buddy.checkInvariants());
}
