#include <gtest/gtest.h>

#include <vector>

#include "contig/analysis.hh"
#include "obs/attribution.hh"

using namespace contig;
using namespace contig::obs;

TEST(ContigClassIndex, ClassOfRunIsLog2Bucketed)
{
    EXPECT_EQ(ContigClassIndex::classOfRun(1), 0u);
    EXPECT_EQ(ContigClassIndex::classOfRun(2), 1u);
    EXPECT_EQ(ContigClassIndex::classOfRun(3), 1u);
    EXPECT_EQ(ContigClassIndex::classOfRun(4), 2u);
    EXPECT_EQ(ContigClassIndex::classOfRun(512), 9u);  // THP class
    EXPECT_EQ(ContigClassIndex::classOfRun(1023), 9u);
    // Caps at the last class no matter how large the run.
    EXPECT_EQ(ContigClassIndex::classOfRun(1ull << 40),
              kContigClasses - 1);
}

TEST(ContigClassIndex, ClassifyFindsContainingRun)
{
    std::vector<Seg> segs;
    segs.push_back(Seg{100, 0, 4});    // [100,104) -> class 2
    segs.push_back(Seg{1000, 0, 512}); // [1000,1512) -> class 9
    segs.push_back(Seg{50, 0, 1});     // [50,51) -> class 0
    const ContigClassIndex idx(segs);
    EXPECT_EQ(idx.runs(), 3u);
    EXPECT_EQ(idx.classify(100), 2u);
    EXPECT_EQ(idx.classify(103), 2u);
    EXPECT_EQ(idx.classify(104), 0u); // one past the run
    EXPECT_EQ(idx.classify(99), 0u);  // uncovered
    EXPECT_EQ(idx.classify(1000), 9u);
    EXPECT_EQ(idx.classify(1511), 9u);
    EXPECT_EQ(idx.classify(50), 0u); // covered, lone page = class 0
    EXPECT_EQ(idx.classify(0), 0u);
}

TEST(XlatAttribution, RecordAccumulatesByOutcomeAndClass)
{
    std::vector<Seg> segs{Seg{0, 0, 512}};
    auto idx = std::make_shared<const ContigClassIndex>(segs);
    XlatAttribution t("base_2d");
    t.setIndex(idx);
    t.record(XlatOutcome::FullWalk, 10, 200, 200);
    t.record(XlatOutcome::FullWalk, 11, 100, 100);
    t.record(XlatOutcome::TlbHit, 10000, 0, 0); // uncovered -> class 0
    const CostCell &walk = t.cell(
        static_cast<unsigned>(XlatOutcome::FullWalk), 9);
    EXPECT_EQ(walk.events, 2u);
    EXPECT_EQ(walk.cycles, 300u);
    EXPECT_EQ(walk.exposed, 300u);
    const CostCell &hit =
        t.cell(static_cast<unsigned>(XlatOutcome::TlbHit), 0);
    EXPECT_EQ(hit.events, 1u);
    EXPECT_EQ(t.events(), 3u);
    // Zero-exposed events never enter the exemplar reservoir.
    EXPECT_EQ(t.exemplars().size(), 2u);
    EXPECT_EQ(t.exemplars()[0].cycles, 200u); // hottest first
}

TEST(XlatAttribution, ExemplarReservoirIsBoundedAndSorted)
{
    XlatAttribution t("x");
    for (std::uint64_t i = 0; i < 100; ++i)
        t.record(XlatOutcome::FullWalk, i, i + 1, i + 1);
    const auto &ex = t.exemplars();
    ASSERT_EQ(ex.size(), XlatAttribution::kExemplarCapacity);
    // Top-K by cycles: 100 down to 100-K+1, descending.
    for (std::size_t i = 0; i < ex.size(); ++i)
        EXPECT_EQ(ex[i].cycles, 100u - i);
}

TEST(XlatAttribution, MergeIsOrderIndependent)
{
    // Two shards with interleaved heat; merging a-into-b and b-into-a
    // must produce identical surviving exemplar sets (the strict
    // total order guarantees it).
    XlatAttribution a("x"), b("x");
    for (std::uint64_t i = 0; i < 40; ++i) {
        a.record(XlatOutcome::FullWalk, 2 * i, 3 * i + 1, 3 * i + 1);
        b.record(XlatOutcome::FullWalk, 2 * i + 1, 2 * i + 1, 2 * i + 1);
    }
    XlatAttribution ab("x"), ba("x");
    ab.mergeFrom(a);
    ab.mergeFrom(b);
    ba.mergeFrom(b);
    ba.mergeFrom(a);
    ASSERT_EQ(ab.exemplars().size(), ba.exemplars().size());
    for (std::size_t i = 0; i < ab.exemplars().size(); ++i) {
        EXPECT_EQ(ab.exemplars()[i].vpn, ba.exemplars()[i].vpn);
        EXPECT_EQ(ab.exemplars()[i].cycles, ba.exemplars()[i].cycles);
    }
    EXPECT_EQ(ab.events(), 80u);
    const CostCell total = ab.outcomeTotal(
        static_cast<unsigned>(XlatOutcome::FullWalk));
    EXPECT_EQ(total.events, 80u);
}

TEST(FaultAttribution, RecordAndMerge)
{
    FaultAttribution a, b;
    a.record(0, false, 0, 100); // anon base none
    a.record(0, true, 0, 5000); // anon huge none
    b.record(0, false, 1, 300); // anon base no_huge_block
    b.record(2, false, 0, 80);  // file base none
    a.mergeFrom(b);
    EXPECT_EQ(a.events(), 4u);
    EXPECT_EQ(a.cell(0, 1, 0).cycles, 5000u);
    EXPECT_EQ(a.cell(0, 0, 1).events, 1u);
    EXPECT_EQ(a.cell(2, 0, 0).events, 1u);
}

TEST(AttribRegistry, AbsorbMergesByLabelAndSkipsEmpty)
{
    AttribRegistry &reg = AttribRegistry::global();
    reg.reset();
    EXPECT_FALSE(reg.hasData());

    XlatAttribution empty("never");
    reg.absorbXlat(empty); // no events -> not registered
    EXPECT_FALSE(reg.hasData());

    XlatAttribution s0("base_2d"), s1("base_2d");
    s0.record(XlatOutcome::FullWalk, 1, 10, 10);
    s1.record(XlatOutcome::FullWalk, 2, 20, 20);
    reg.absorbXlat(s0);
    reg.absorbXlat(s1);
    ASSERT_TRUE(reg.hasData());
    ASSERT_EQ(reg.labels(), std::vector<std::string>{"base_2d"});
    const XlatAttribution *merged = reg.xlat("base_2d");
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->events(), 2u);
    EXPECT_EQ(reg.xlat("nope"), nullptr);

    FaultAttribution f;
    f.record(1, false, 0, 42);
    reg.absorbFault(f);
    EXPECT_EQ(reg.fault().events(), 1u);
    reg.reset();
    EXPECT_FALSE(reg.hasData());
}

TEST(AttribRegistry, NamesAreStable)
{
    // JSON consumers (contig_report, check_bench_json) key on these.
    EXPECT_STREQ(xlatOutcomeName(XlatOutcome::TlbHit), "tlb_hit");
    EXPECT_STREQ(xlatOutcomeName(XlatOutcome::SegmentHit),
                 "segment_hit");
    EXPECT_STREQ(xlatOutcomeName(XlatOutcome::SpotHit), "spot_hit");
    EXPECT_STREQ(xlatOutcomeName(XlatOutcome::RangeHit), "range_hit");
    EXPECT_STREQ(xlatOutcomeName(XlatOutcome::PscWalk), "psc_walk");
    EXPECT_STREQ(xlatOutcomeName(XlatOutcome::FullWalk), "full_walk");
    EXPECT_STREQ(contigClassName(0), "4K");
    EXPECT_STREQ(contigClassName(9), "2M(THP)");
    EXPECT_STREQ(contigClassName(kContigClasses - 1), ">=128M");
    EXPECT_STREQ(faultKindName(0), "anon");
    EXPECT_STREQ(faultFallName(1), "no_huge_block");
}
