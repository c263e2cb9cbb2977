#include <gtest/gtest.h>

#include "tlb/tlb.hh"

using namespace contig;

TEST(Tlb, HitAfterFill)
{
    Tlb tlb({4, 4}, 0);
    EXPECT_FALSE(tlb.lookup(100));
    tlb.fill(100);
    EXPECT_TRUE(tlb.lookup(100));
    EXPECT_FALSE(tlb.lookup(101));
}

TEST(Tlb, HugeTagging)
{
    Tlb tlb({2, 4}, kHugeOrder);
    tlb.fill(512 * 5 + 13); // anywhere inside huge page 5
    // Every vpn in the same huge page hits.
    EXPECT_TRUE(tlb.lookup(512 * 5));
    EXPECT_TRUE(tlb.lookup(512 * 5 + 511));
    EXPECT_FALSE(tlb.lookup(512 * 6));
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb({1, 2}, 0); // one set, two ways
    tlb.fill(1);
    tlb.fill(2);
    EXPECT_TRUE(tlb.lookup(1)); // 1 is now MRU
    tlb.fill(3);                // evicts 2 (LRU)
    EXPECT_TRUE(tlb.probe(1));
    EXPECT_FALSE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(3));
    EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(Tlb, SetIndexingSeparatesConflicts)
{
    Tlb tlb({2, 1}, 0); // two sets, one way
    tlb.fill(0);        // set 0
    tlb.fill(1);        // set 1
    EXPECT_TRUE(tlb.probe(0));
    EXPECT_TRUE(tlb.probe(1));
    tlb.fill(2); // set 0 again: evicts 0
    EXPECT_FALSE(tlb.probe(0));
    EXPECT_TRUE(tlb.probe(2));
}

TEST(Tlb, RefillingPresentEntryDoesNotEvict)
{
    Tlb tlb({1, 2}, 0);
    tlb.fill(1);
    tlb.fill(2);
    tlb.fill(1); // already present
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_EQ(tlb.stats().evictions, 0u);
}

TEST(Tlb, FlushEmptiesEverything)
{
    Tlb tlb({4, 4}, 0);
    for (Vpn v = 0; v < 16; ++v)
        tlb.fill(v);
    tlb.flush();
    for (Vpn v = 0; v < 16; ++v)
        EXPECT_FALSE(tlb.probe(v));
}

TEST(Tlb, NonPowerOfTwoSetCountIsFatal)
{
    // The set index is computed with a mask (tag & (sets - 1)), which
    // silently aliases sets for non-power-of-two geometries; the
    // constructor must reject them loudly instead.
    EXPECT_DEATH(Tlb({3, 4}, 0), "power of two");
    EXPECT_DEATH(Tlb({12, 2}, kHugeOrder), "power of two");
}

TEST(Tlb, PowerOfTwoSetCountsUseEverySet)
{
    // All power-of-two geometries are accepted, and the mask indexing
    // spreads consecutive tags across all sets.
    for (unsigned sets : {1u, 2u, 8u, 64u}) {
        Tlb tlb({sets, 1}, 0);
        for (Vpn v = 0; v < sets; ++v)
            tlb.fill(v);
        for (Vpn v = 0; v < sets; ++v)
            EXPECT_TRUE(tlb.probe(v)) << sets << " sets, vpn " << v;
    }
}

TEST(TlbHierarchy, OddUnifiedL2WayCountIsFatal)
{
    // The unified L2 splits its way budget evenly across the two page
    // sizes; an odd way count would silently drop a way (and the SoA
    // lane layout assumes the halves are equal). Reject it loudly.
    TlbHierConfig cfg;
    cfg.l2 = {2, 5};
    EXPECT_DEATH(TlbHierarchy{cfg}, "even");
}

TEST(TlbHierarchy, L1ThenL2ThenMiss)
{
    TlbHierarchy h;
    EXPECT_EQ(h.access(1000, 0), TlbLevel::Miss);
    h.fill(1000, 0);
    EXPECT_EQ(h.access(1000, 0), TlbLevel::L1);
}

TEST(TlbHierarchy, L2PromotesToL1)
{
    TlbHierConfig cfg;
    cfg.l1_4k = {1, 1}; // single-entry L1
    cfg.l2 = {4, 6};
    TlbHierarchy h(cfg);
    h.fill(1, 0);
    h.fill(2, 0); // evicts 1 from the tiny L1; L2 still holds it
    EXPECT_EQ(h.access(1, 0), TlbLevel::L2);
    EXPECT_EQ(h.access(1, 0), TlbLevel::L1); // promoted
}

TEST(TlbHierarchy, PageSizesUseSeparateL1)
{
    TlbHierarchy h;
    h.fill(512 * 3, kHugeOrder);
    EXPECT_EQ(h.access(512 * 3 + 7, kHugeOrder), TlbLevel::L1);
    // The same vpn probed as a 4 KiB page misses (different array).
    EXPECT_EQ(h.access(512 * 3 + 7, 0), TlbLevel::Miss);
}

TEST(TlbHierarchy, ReachLimitsCoverage)
{
    // Working set of 2x the L2 entries: steady-state misses.
    TlbHierarchy h;
    const unsigned entries = 64;
    unsigned misses = 0;
    for (int round = 0; round < 4; ++round) {
        for (Vpn v = 0; v < entries; ++v) {
            if (h.access(v * 512, kHugeOrder) == TlbLevel::Miss) {
                ++misses;
                h.fill(v * 512, kHugeOrder);
            }
        }
    }
    // Far more misses than the number of distinct pages: thrash.
    EXPECT_GT(misses, entries);
}
