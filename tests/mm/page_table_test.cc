#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "mm/page_table.hh"

using namespace contig;

TEST(PageTable, EmptyLookupFails)
{
    PageTable pt;
    EXPECT_FALSE(pt.lookup(0x1234));
}

TEST(PageTable, MapLookup4k)
{
    PageTable pt;
    pt.map(100, 7, 0);
    auto m = pt.lookup(100);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pfn, 7u);
    EXPECT_EQ(m->order, 0u);
    EXPECT_FALSE(pt.lookup(101));
    EXPECT_FALSE(pt.lookup(99));
}

TEST(PageTable, MapLookupHuge)
{
    PageTable pt;
    const Vpn base = 5 * 512;
    pt.map(base, 1024, kHugeOrder);
    // Every vpn inside the huge region resolves to the same leaf.
    for (Vpn v = base; v < base + 512; v += 37) {
        auto m = pt.lookup(v);
        ASSERT_TRUE(m);
        EXPECT_EQ(m->pfn, 1024u);
        EXPECT_EQ(m->order, kHugeOrder);
    }
    EXPECT_FALSE(pt.lookup(base + 512));
}

TEST(PageTable, UnmapRemoves)
{
    PageTable pt;
    pt.map(42, 43, 0);
    pt.unmap(42, 0);
    EXPECT_FALSE(pt.lookup(42));
    EXPECT_EQ(pt.stats().mappedBasePages, 0u);
}

TEST(PageTable, Walk4kTouchesFourLevels)
{
    PageTable pt;
    pt.map(0x123456, 99, 0);
    WalkTrace t;
    pt.walk(0x123456, t);
    EXPECT_TRUE(t.hit);
    EXPECT_EQ(t.nodeFrames.size(), 4u);
    EXPECT_EQ(t.mapping.pfn, 99u);
}

TEST(PageTable, WalkHugeTouchesThreeLevels)
{
    PageTable pt;
    pt.map(512, 512, kHugeOrder);
    WalkTrace t;
    pt.walk(512 + 17, t);
    EXPECT_TRUE(t.hit);
    EXPECT_EQ(t.nodeFrames.size(), 3u);
}

TEST(PageTable, WalkMissRecordsPartialTrace)
{
    PageTable pt;
    pt.map(0, 1, 0); // builds the path for low vpns
    WalkTrace t;
    pt.walk(3, t); // same L1 node, missing slot
    EXPECT_FALSE(t.hit);
    EXPECT_EQ(t.nodeFrames.size(), 4u);
    // A vpn far away misses at the root.
    pt.walk(Vpn{1} << 35, t);
    EXPECT_FALSE(t.hit);
    EXPECT_EQ(t.nodeFrames.size(), 1u);
}

TEST(PageTable, ContigBit)
{
    PageTable pt;
    pt.map(10, 20, 0);
    EXPECT_FALSE(pt.lookup(10)->contigBit);
    pt.setContigBit(10, true);
    EXPECT_TRUE(pt.lookup(10)->contigBit);
    pt.setContigBit(10, false);
    EXPECT_FALSE(pt.lookup(10)->contigBit);
}

TEST(PageTable, CowBits)
{
    PageTable pt;
    pt.map(10, 20, 0, true, false);
    pt.setWritable(10, false, true);
    auto m = pt.lookup(10);
    EXPECT_FALSE(m->writable);
    EXPECT_TRUE(m->cow);
}

TEST(PageTable, ForEachLeafAscending)
{
    PageTable pt;
    pt.map(1000, 1, 0);
    pt.map(512 * 9, 512, kHugeOrder); // vpn 4608 (aligned)
    pt.map(5, 2, 0);
    std::vector<Vpn> seen;
    pt.forEachLeaf([&](Vpn v, const Mapping &) { seen.push_back(v); });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], 5u);
    EXPECT_EQ(seen[1], 1000u);
    EXPECT_EQ(seen[2], 512u * 9);
}

TEST(PageTable, NodeAllocatorUsed)
{
    Pfn next = 1000;
    std::vector<Pfn> freed;
    {
        PageTable pt([&] { return next++; },
                     [&](Pfn p) { freed.push_back(p); });
        pt.map(0x1, 5, 0);
        pt.map(Vpn{1} << 30, 6, 0);
        EXPECT_GE(pt.stats().nodesAllocated, 4u);
        EXPECT_EQ(pt.rootFrame(), 1000u);
    }
    // All node frames returned on destruction.
    EXPECT_EQ(freed.size(), next - 1000);
}

TEST(PageTable, HighVpnsSupported)
{
    PageTable pt;
    const Vpn high = (Vpn{1} << 36) - 512; // top of the 48-bit space
    pt.map(high, 512, kHugeOrder);
    auto m = pt.lookup(high + 11);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pfn, 512u);
}

namespace
{

/** A leaf's fields as one comparable value. */
std::tuple<Pfn, unsigned, bool, bool, bool>
fields(const Mapping &m)
{
    return {m.pfn, m.order, m.writable, m.cow, m.contigBit};
}

/**
 * Every leaf shape a slot word must hold: order {0, 9} x writable x
 * COW x contiguity bit, at pfns 0, 512, 2^32 + 512 and the largest
 * 512-aligned pfn a leaf can take.
 */
std::vector<Mapping>
leafCases()
{
    std::vector<Mapping> cases;
    for (unsigned order : {0u, kHugeOrder})
        for (Pfn pfn : {Pfn{0}, Pfn{512}, (Pfn{1} << 32) + 512,
                        kMaxLeafPfn & ~Pfn{511}})
            for (int bits = 0; bits < 8; ++bits)
                cases.push_back(Mapping{pfn, order, (bits & 1) != 0,
                                        (bits & 2) != 0, (bits & 4) != 0});
    return cases;
}

/** A vpn at the given alignment inside a non-zero level-4 slot. */
Vpn
caseVpn(const Mapping &m)
{
    return (Vpn{3} << 27) + 512 * 7 + (m.order == 0 ? 5 : 0);
}

/** Every reader reports exactly `want` at `vpn` and nothing else. */
void
expectOnlyLeaf(const PageTable &pt, Vpn vpn, const Mapping &want)
{
    const Vpn span = pagesInOrder(want.order);
    for (Vpn v : {vpn, vpn + span - 1}) {
        const auto got = pt.lookup(v);
        ASSERT_TRUE(got);
        EXPECT_EQ(fields(*got), fields(want));
        WalkTrace t;
        pt.walk(v, t);
        EXPECT_TRUE(t.hit);
        EXPECT_EQ(t.nodeFrames.size(), want.order == 0 ? 4u : 3u);
        EXPECT_EQ(fields(t.mapping), fields(want));
    }
    EXPECT_FALSE(pt.lookup(vpn + span));
    EXPECT_FALSE(pt.lookup(vpn - 1));

    std::vector<std::pair<Vpn, Mapping>> all, in;
    pt.forEachLeaf([&](Vpn v, const Mapping &m) { all.emplace_back(v, m); });
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].first, vpn);
    EXPECT_EQ(fields(all[0].second), fields(want));
    pt.forEachLeafIn(vpn + span - 1, vpn + span,
                     [&](Vpn v, const Mapping &m) { in.emplace_back(v, m); });
    ASSERT_EQ(in.size(), 1u);
    EXPECT_EQ(in[0].first, vpn);
    EXPECT_EQ(fields(in[0].second), fields(want));

    EXPECT_EQ(pt.findMappedIn(0, Vpn{1} << 36), vpn);
    EXPECT_EQ(pt.findMappedIn(vpn + span - 1, vpn + span), vpn + span - 1);
    EXPECT_EQ(pt.findMappedIn(vpn + span, Vpn{1} << 36), Vpn{1} << 36);
}

} // namespace

TEST(PageTable, SlotEncodingRoundTripsEveryLeafShape)
{
    for (const Mapping &want : leafCases()) {
        SCOPED_TRACE(testing::Message()
                     << "pfn " << want.pfn << " order " << want.order
                     << " w" << want.writable << " cow" << want.cow
                     << " contig" << want.contigBit);
        PageTable pt;
        const Vpn vpn = caseVpn(want);
        pt.map(vpn, want.pfn, want.order, want.writable, want.cow);
        if (want.contigBit)
            pt.setContigBit(vpn, true);
        expectOnlyLeaf(pt, vpn, want);
        EXPECT_EQ(fields(pt.unmap(vpn, want.order)), fields(want));
        EXPECT_FALSE(pt.lookup(vpn));
        EXPECT_EQ(pt.findMappedIn(0, Vpn{1} << 36), Vpn{1} << 36);
    }
}

TEST(PageTable, RunMapperLeavesRoundTrip)
{
    for (const Mapping &want : leafCases()) {
        if (want.order != 0)
            continue;
        SCOPED_TRACE(testing::Message()
                     << "pfn " << want.pfn << " w" << want.writable
                     << " cow" << want.cow << " contig" << want.contigBit);
        PageTable pt;
        const Vpn vpn = caseVpn(want);
        PageTable::RunMapper rm(pt);
        rm.map(vpn, want.pfn, want.writable, want.cow);
        if (want.contigBit)
            pt.setContigBit(vpn, true);
        expectOnlyLeaf(pt, vpn, want);
        EXPECT_EQ(fields(pt.unmap(vpn, 0)), fields(want));
    }
}

TEST(PageTable, FlagSettersChangeOnlyTheirBits)
{
    for (const Mapping &start : leafCases()) {
        SCOPED_TRACE(testing::Message()
                     << "pfn " << start.pfn << " order " << start.order
                     << " w" << start.writable << " cow" << start.cow
                     << " contig" << start.contigBit);
        PageTable pt;
        const Vpn vpn = caseVpn(start);
        std::vector<std::tuple<Vpn, Mapping, bool>> seen;
        pt.setUpdateHook([&](Vpn v, const Mapping &m, bool present) {
            seen.emplace_back(v, m, present);
        });
        pt.map(vpn, start.pfn, start.order, start.writable, start.cow);
        pt.setContigBit(vpn, start.contigBit);
        // Address the leaf through its last page: the hook still
        // reports the leaf's base vpn.
        const Vpn last = vpn + pagesInOrder(start.order) - 1;

        Mapping want = start;
        want.contigBit = !start.contigBit;
        pt.setContigBit(last, want.contigBit);
        expectOnlyLeaf(pt, vpn, want);
        ASSERT_EQ(seen.size(), 3u);
        EXPECT_EQ(std::get<0>(seen.back()), vpn);
        EXPECT_EQ(fields(std::get<1>(seen.back())), fields(want));
        EXPECT_TRUE(std::get<2>(seen.back()));

        want.writable = !start.writable;
        want.cow = !start.cow;
        pt.setWritable(last, want.writable, want.cow);
        expectOnlyLeaf(pt, vpn, want);
        ASSERT_EQ(seen.size(), 4u);
        EXPECT_EQ(std::get<0>(seen.back()), vpn);
        EXPECT_EQ(fields(std::get<1>(seen.back())), fields(want));
        EXPECT_TRUE(std::get<2>(seen.back()));

        pt.unmap(vpn, start.order);
        ASSERT_EQ(seen.size(), 5u);
        EXPECT_EQ(std::get<0>(seen.back()), vpn);
        EXPECT_EQ(fields(std::get<1>(seen.back())), fields(want));
        EXPECT_FALSE(std::get<2>(seen.back()));
    }
}

TEST(PageTableDeathTest, UnencodablePfnIsRejected)
{
    PageTable pt;
    const Pfn too_big = kMaxLeafPfn + 1; // 2^52: aligned for both orders
    EXPECT_DEATH(pt.map(0, too_big, 0), "does not fit");
    EXPECT_DEATH(pt.map(0, too_big, kHugeOrder), "does not fit");
    EXPECT_DEATH(pt.map(0, kInvalidPfn, 0), "does not fit");
    PageTable::RunMapper rm(pt);
    EXPECT_DEATH(rm.map(0, too_big, true, false), "does not fit");
}
