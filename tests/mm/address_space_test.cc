#include <gtest/gtest.h>

#include "mm/address_space.hh"

using namespace contig;

TEST(AddressSpace, MmapAssignsHugeAlignedBases)
{
    AddressSpace as;
    Vma &a = as.mmap(10 << 20);
    Vma &b = as.mmap(4 << 10);
    EXPECT_EQ(a.start().value % kHugeSize, 0u);
    EXPECT_EQ(b.start().value % kHugeSize, 0u);
    EXPECT_GE(b.start().value, a.end().value);
}

TEST(AddressSpace, MmapRoundsUpToPage)
{
    AddressSpace as;
    Vma &a = as.mmap(100);
    EXPECT_EQ(a.bytes(), kPageSize);
    EXPECT_EQ(a.pages(), 1u);
}

TEST(AddressSpace, FindVma)
{
    AddressSpace as;
    Vma &a = as.mmap(1 << 20);
    EXPECT_EQ(as.findVma(a.start()), &a);
    EXPECT_EQ(as.findVma(a.start() + (1 << 20) - 1), &a);
    EXPECT_EQ(as.findVma(a.end()), nullptr);
    EXPECT_EQ(as.findVma(Gva{0}), nullptr);
}

TEST(AddressSpace, ExplicitBase)
{
    AddressSpace as;
    Gva base{0x7000000000};
    Vma &a = as.mmap(1 << 20, VmaKind::Anon, base);
    EXPECT_EQ(a.start(), base);
}

TEST(AddressSpace, MunmapRemoves)
{
    AddressSpace as;
    Vma &a = as.mmap(1 << 20);
    Gva start = a.start();
    as.munmap(a);
    EXPECT_EQ(as.findVma(start), nullptr);
    EXPECT_EQ(as.vmaCount(), 0u);
}

TEST(Vma, CoversAligned)
{
    AddressSpace as;
    Vma &a = as.mmap(kHugeSize); // exactly one huge region, huge-aligned
    Vpn start = a.start().pageNumber();
    EXPECT_TRUE(a.coversAligned(start, kHugeOrder));
    EXPECT_TRUE(a.coversAligned(start + 511, kHugeOrder));
    EXPECT_FALSE(a.coversAligned(start + 512, kHugeOrder));

    Vma &b = as.mmap(kHugeSize / 2); // too small for a huge fault
    EXPECT_FALSE(b.coversAligned(b.start().pageNumber(), kHugeOrder));
}

TEST(Vma, CaOffsetFifoCapped)
{
    AddressSpace as;
    Vma &a = as.mmap(1 << 20);
    for (std::uint64_t i = 0; i < kMaxCaOffsets + 10; ++i)
        a.pushCaOffset(i * 100, static_cast<std::int64_t>(i));
    EXPECT_EQ(a.caOffsetCount(), kMaxCaOffsets);
    // The oldest 10 entries were evicted: nearest to vpn=0 is now the
    // entry with origin 10*100.
    auto off = a.nearestCaOffset(0);
    ASSERT_TRUE(off);
    EXPECT_EQ(off->offsetPages, 10);

    // Popping after the ring wrapped drops the oldest live record, not
    // whatever sits in ring slot 0 (ablate_offset_fifo trims this way).
    a.popOldestCaOffset();
    EXPECT_EQ(a.caOffsetCount(), kMaxCaOffsets - 1);
    EXPECT_EQ(a.nearestCaOffset(0)->offsetPages, 11);
    while (a.hasCaOffsets())
        a.popOldestCaOffset();
    EXPECT_FALSE(a.nearestCaOffset(0));
    a.popOldestCaOffset(); // a no-op on an empty ring
    EXPECT_EQ(a.caOffsetCount(), 0u);

    // Two records equidistant from the fault: the older one wins. The
    // padding puts the older record in the ring's last slot, so the
    // newer one wraps around to slot 0.
    for (std::uint64_t i = 0; i < kMaxCaOffsets - 11; ++i)
        a.pushCaOffset(1'000'000 + i, 0);
    a.pushCaOffset(1000, -1);
    a.pushCaOffset(1200, -2);
    EXPECT_EQ(a.nearestCaOffset(1100)->offsetPages, -1);
    a.pushCaOffset(1300, -3);
    a.pushCaOffset(1100, -4);
    EXPECT_EQ(a.nearestCaOffset(1250)->offsetPages, -2);
}

TEST(Vma, NearestCaOffsetPicksClosest)
{
    AddressSpace as;
    Vma &a = as.mmap(1 << 20);
    a.pushCaOffset(100, 1);
    a.pushCaOffset(500, 2);
    a.pushCaOffset(900, 3);
    EXPECT_EQ(a.nearestCaOffset(120)->offsetPages, 1);
    EXPECT_EQ(a.nearestCaOffset(480)->offsetPages, 2);
    EXPECT_EQ(a.nearestCaOffset(5000)->offsetPages, 3);
}

TEST(Vma, ReplacementGuard)
{
    AddressSpace as;
    Vma &a = as.mmap(1 << 20);
    EXPECT_TRUE(a.tryBeginReplacement());
    EXPECT_FALSE(a.tryBeginReplacement()); // second "thread" loses
    a.endReplacement();
    EXPECT_TRUE(a.tryBeginReplacement());
    a.endReplacement();
}
