#include <gtest/gtest.h>

#include "phys/contiguity_map.hh"

using namespace contig;

namespace
{

constexpr std::uint64_t kBlock = pagesInOrder(kMaxOrder); // 2048 pages

} // namespace

TEST(ContiguityMap, EmptyPlacementFails)
{
    ContiguityMap map(kBlock);
    EXPECT_FALSE(map.placeNextFit(1));
    EXPECT_FALSE(map.placeBestFit(1));
    EXPECT_FALSE(map.largest());
    EXPECT_EQ(map.clusterCount(), 0u);
}

TEST(ContiguityMap, SingleBlock)
{
    ContiguityMap map(kBlock);
    map.onBlockFree(0);
    EXPECT_EQ(map.clusterCount(), 1u);
    EXPECT_EQ(map.freePagesTracked(), kBlock);
    auto c = map.placeNextFit(kBlock);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->startPfn, 0u);
    EXPECT_EQ(c->pages, kBlock);
}

TEST(ContiguityMap, AdjacentBlocksMerge)
{
    ContiguityMap map(kBlock);
    map.onBlockFree(0);
    map.onBlockFree(kBlock);
    map.onBlockFree(3 * kBlock); // not adjacent
    EXPECT_EQ(map.clusterCount(), 2u);
    auto c = map.largest();
    ASSERT_TRUE(c);
    EXPECT_EQ(c->startPfn, 0u);
    EXPECT_EQ(c->pages, 2 * kBlock);
    EXPECT_TRUE(map.checkInvariants());
}

TEST(ContiguityMap, MergeBothSides)
{
    ContiguityMap map(kBlock);
    map.onBlockFree(0);
    map.onBlockFree(2 * kBlock);
    EXPECT_EQ(map.clusterCount(), 2u);
    map.onBlockFree(kBlock); // bridges the gap
    EXPECT_EQ(map.clusterCount(), 1u);
    EXPECT_EQ(map.largest()->pages, 3 * kBlock);
    EXPECT_TRUE(map.checkInvariants());
}

TEST(ContiguityMap, RemoveSplitsCluster)
{
    ContiguityMap map(kBlock);
    for (int i = 0; i < 5; ++i)
        map.onBlockFree(i * kBlock);
    EXPECT_EQ(map.clusterCount(), 1u);
    map.onBlockAllocated(2 * kBlock); // middle of the cluster
    EXPECT_EQ(map.clusterCount(), 2u);
    auto snap = map.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].startPfn, 0u);
    EXPECT_EQ(snap[0].pages, 2 * kBlock);
    EXPECT_EQ(snap[1].startPfn, 3 * kBlock);
    EXPECT_EQ(snap[1].pages, 2 * kBlock);
    EXPECT_TRUE(map.checkInvariants());
}

TEST(ContiguityMap, RemoveAtEdgesShrinks)
{
    ContiguityMap map(kBlock);
    for (int i = 0; i < 3; ++i)
        map.onBlockFree(i * kBlock);
    map.onBlockAllocated(0);
    EXPECT_EQ(map.clusterCount(), 1u);
    EXPECT_EQ(map.snapshot()[0].startPfn, kBlock);
    map.onBlockAllocated(2 * kBlock);
    EXPECT_EQ(map.clusterCount(), 1u);
    EXPECT_EQ(map.snapshot()[0].pages, kBlock);
    map.onBlockAllocated(kBlock);
    EXPECT_EQ(map.clusterCount(), 0u);
    EXPECT_EQ(map.freePagesTracked(), 0u);
    EXPECT_TRUE(map.checkInvariants());
}

TEST(ContiguityMap, NextFitPrefersFit)
{
    ContiguityMap map(kBlock);
    map.onBlockFree(0);                    // 1-block cluster
    map.onBlockFree(10 * kBlock);          // 2-block cluster
    map.onBlockFree(11 * kBlock);
    auto c = map.placeNextFit(2 * kBlock);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->startPfn, 10 * kBlock);
}

TEST(ContiguityMap, NextFitFallsBackToLargest)
{
    ContiguityMap map(kBlock);
    map.onBlockFree(0);
    map.onBlockFree(10 * kBlock);
    map.onBlockFree(11 * kBlock);
    auto c = map.placeNextFit(100 * kBlock);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->startPfn, 10 * kBlock);
    EXPECT_EQ(c->pages, 2 * kBlock);
}

TEST(ContiguityMap, NextFitRoverAdvances)
{
    // Three equal clusters; successive placements should rotate across
    // them instead of re-issuing the same cluster (racing deferral).
    ContiguityMap map(kBlock);
    map.onBlockFree(0);
    map.onBlockFree(10 * kBlock);
    map.onBlockFree(20 * kBlock);
    auto a = map.placeNextFit(kBlock);
    auto b = map.placeNextFit(kBlock);
    auto c = map.placeNextFit(kBlock);
    ASSERT_TRUE(a && b && c);
    EXPECT_NE(a->startPfn, b->startPfn);
    EXPECT_NE(b->startPfn, c->startPfn);
    EXPECT_NE(a->startPfn, c->startPfn);
    // Fourth placement wraps around.
    auto d = map.placeNextFit(kBlock);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->startPfn, a->startPfn);
}

TEST(ContiguityMap, BestFitPicksSmallestSufficient)
{
    ContiguityMap map(kBlock);
    map.onBlockFree(0); // size 1
    map.onBlockFree(10 * kBlock);
    map.onBlockFree(11 * kBlock); // size 2
    map.onBlockFree(20 * kBlock);
    map.onBlockFree(21 * kBlock);
    map.onBlockFree(22 * kBlock); // size 3
    auto c = map.placeBestFit(2 * kBlock);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->startPfn, 10 * kBlock);
    // Too big for all -> largest.
    auto l = map.placeBestFit(10 * kBlock);
    ASSERT_TRUE(l);
    EXPECT_EQ(l->startPfn, 20 * kBlock);
}

TEST(ContiguityMap, RoverSurvivesClusterRemoval)
{
    ContiguityMap map(kBlock);
    map.onBlockFree(0);
    map.onBlockFree(10 * kBlock);
    auto a = map.placeNextFit(kBlock);
    ASSERT_TRUE(a);
    // Remove the cluster the rover points at; the next placement must
    // still succeed.
    auto b = map.placeNextFit(kBlock);
    ASSERT_TRUE(b);
    map.onBlockAllocated(b->startPfn);
    auto c = map.placeNextFit(kBlock);
    ASSERT_TRUE(c);
}
