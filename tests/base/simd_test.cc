#include <gtest/gtest.h>

#include <vector>

#include "base/simd.hh"
#include "base/tag_sets.hh"

using namespace contig;

namespace
{

/** A padded lane of `n` ways holding tags 100, 101, ... */
std::vector<std::uint64_t>
lanesOf(unsigned n)
{
    std::vector<std::uint64_t> lanes(simd::padLanes(n), simd::kNoTag64);
    for (unsigned i = 0; i < n; ++i)
        lanes[i] = 100 + i;
    return lanes;
}

/** The build's kernel and the scalar loop give `want`. */
void
expectProbe(const std::vector<std::uint64_t> &lanes, unsigned n,
            std::uint64_t tag, int want)
{
    EXPECT_EQ(simd::findTagScalar(lanes.data(), n, tag), want);
    EXPECT_EQ(simd::findTag(lanes.data(), n, tag), want);
}

/** The lane of `tag` in `set`, or -1. */
int
laneOf(const TagSets &t, unsigned set, std::uint64_t tag)
{
    unsigned lane = 0;
    return t.find(set, tag, lane) ? static_cast<int>(lane) : -1;
}

} // namespace

TEST(FindTag, MatchesScalarAtEveryPosition)
{
    for (unsigned n = 1; n <= 17; ++n) {
        SCOPED_TRACE(testing::Message() << n << " ways");
        const auto lanes = lanesOf(n);
        for (unsigned i = 0; i < n; ++i)
            expectProbe(lanes, n, 100 + i, static_cast<int>(i));
    }
}

TEST(FindTag, LowestDuplicateWins)
{
    for (unsigned n = 2; n <= 17; ++n) {
        for (unsigned lo = 0; lo < n; ++lo) {
            for (unsigned hi = lo + 1; hi < n; ++hi) {
                SCOPED_TRACE(testing::Message() << n << " ways, lanes "
                                                << lo << " and " << hi);
                auto lanes = lanesOf(n);
                lanes[hi] = lanes[lo];
                expectProbe(lanes, n, lanes[lo], static_cast<int>(lo));
            }
        }
    }
}

TEST(FindTag, AbsentTagsAndEmptyLanesNeverMatch)
{
    for (unsigned n = 1; n <= 17; ++n) {
        SCOPED_TRACE(testing::Message() << n << " ways");
        expectProbe(lanesOf(n), n, 99, -1);
        expectProbe(lanesOf(n), n, 100 + n, -1);
        // A set of empty ways: every slot, padding too, is the
        // sentinel.
        const std::vector<std::uint64_t> empty(simd::padLanes(n),
                                               simd::kNoTag64);
        expectProbe(empty, n, 100, -1);
        // A tag equal to a sentinel in one 32-bit half only.
        expectProbe(empty, n, 0xffffffffull, -1);
        expectProbe(empty, n, 0xffffffff00000000ull, -1);
    }
}

TEST(TagSets, FillsFirstEmptyWayThenEvictsStrictLru)
{
    TagSets t(2, 3);
    EXPECT_FALSE(t.fill(1, 10));
    EXPECT_EQ(laneOf(t, 1, 10), static_cast<int>(t.lane(1, 0)));
    EXPECT_FALSE(t.fill(1, 11));
    EXPECT_FALSE(t.fill(1, 12));
    EXPECT_EQ(laneOf(t, 1, 11), static_cast<int>(t.lane(1, 1)));
    EXPECT_EQ(laneOf(t, 1, 12), static_cast<int>(t.lane(1, 2)));
    EXPECT_EQ(laneOf(t, 0, 10), -1); // sets are disjoint

    t.touch(t.lane(1, 0)); // 10 becomes MRU; 11 is now LRU
    EXPECT_TRUE(t.fill(1, 13));
    EXPECT_EQ(laneOf(t, 1, 11), -1);
    EXPECT_EQ(laneOf(t, 1, 13), static_cast<int>(t.lane(1, 1)));
    EXPECT_TRUE(t.fill(1, 14)); // then 12
    EXPECT_EQ(laneOf(t, 1, 12), -1);
    EXPECT_EQ(laneOf(t, 1, 14), static_cast<int>(t.lane(1, 2)));
}

TEST(TagSets, RefillingPresentTagRefreshesWithoutEvicting)
{
    TagSets t(1, 2);
    t.fill(0, 1);
    t.fill(0, 2);
    EXPECT_FALSE(t.fill(0, 1)); // present: now MRU, no second copy
    EXPECT_EQ(laneOf(t, 0, 2), static_cast<int>(t.lane(0, 1)));
    EXPECT_TRUE(t.fill(0, 3)); // evicts 2, not 1
    EXPECT_EQ(laneOf(t, 0, 1), static_cast<int>(t.lane(0, 0)));
    EXPECT_EQ(laneOf(t, 0, 2), -1);
}

TEST(TagSets, ViewStampsReachTheArrayOnCommit)
{
    TagSets t(1, 2);
    t.fill(0, 1);
    t.fill(0, 2);
    TagSets::View v = t.view();
    unsigned lane = 0;
    ASSERT_TRUE(v.find(0, 1, lane));
    ASSERT_EQ(static_cast<int>(lane), laneOf(t, 0, 1));
    v.touch(lane); // 1 becomes MRU
    t.commit(v);
    EXPECT_EQ(t.clock(), v.clock);
    t.fill(0, 3); // evicts 2
    EXPECT_EQ(laneOf(t, 0, 2), -1);
    EXPECT_GE(laneOf(t, 0, 1), 0);
}

TEST(TagSets, FlushEmptiesEveryWay)
{
    TagSets t(2, 5);
    for (unsigned set = 0; set < 2; ++set)
        for (std::uint64_t tag = 0; tag < 5; ++tag)
            t.fill(set, tag);
    t.flush();
    for (unsigned set = 0; set < 2; ++set) {
        for (std::uint64_t tag = 0; tag < 5; ++tag)
            EXPECT_EQ(laneOf(t, set, tag), -1);
        for (unsigned way = 0; way < 5; ++way)
            EXPECT_TRUE(t.empty(t.lane(set, way)));
    }
    EXPECT_FALSE(t.fill(1, 7)); // refills from the first way
    EXPECT_EQ(laneOf(t, 1, 7), static_cast<int>(t.lane(1, 0)));
}

TEST(TagSets, DegenerateGeometryIsFatal)
{
    EXPECT_EXIT(TagSets(0, 4), testing::ExitedWithCode(1),
                "at least one set and one way");
    EXPECT_EXIT(TagSets(4, 0), testing::ExitedWithCode(1),
                "at least one set and one way");
}

TEST(TagSets, SentinelTagIsRejected)
{
    TagSets t(1, 4);
    EXPECT_DEATH(t.fill(0, simd::kNoTag64), "sentinel");
}
