#include <gtest/gtest.h>

#include <vector>

#include "base/json.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "phys/buddy.hh"

using namespace contig;
using namespace contig::obs;

TEST(MetricSink, TypedEmissions)
{
    MetricSink sink;
    sink.counter("c", 2);
    sink.counter("c", 3);
    sink.summary("p", 1.5);
    Summary s;
    s.add(4.0);
    sink.summary("s", s);

    const SampleMap &m = sink.samples();
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.at("c").type, MetricType::Counter);
    EXPECT_EQ(m.at("c").counter, 5u);
    // A point value is a one-sample summary.
    EXPECT_EQ(m.at("p").type, MetricType::Summary);
    EXPECT_EQ(m.at("p").summary.count(), 1u);
    EXPECT_DOUBLE_EQ(m.at("p").summary.sum(), 1.5);
    EXPECT_EQ(m.at("s").summary.count(), 1u);
}

TEST(MetricSink, ScopePrefixes)
{
    MetricSink sink;
    sink.counter("top", 1);
    {
        MetricSink::Scope zone(sink, "buddy");
        sink.counter("split_count", 7);
        {
            MetricSink::Scope inner(sink, "l0");
            sink.counter("x", 1);
        }
        sink.counter("merge_count", 2);
    }
    sink.counter("top2", 1);

    const SampleMap &m = sink.samples();
    EXPECT_EQ(m.count("top"), 1u);
    EXPECT_EQ(m.count("buddy.split_count"), 1u);
    EXPECT_EQ(m.count("buddy.l0.x"), 1u);
    EXPECT_EQ(m.count("buddy.merge_count"), 1u);
    EXPECT_EQ(m.count("top2"), 1u);
}

TEST(MetricSample, HistogramMergeIsBucketwise)
{
    Log2Histogram a, b;
    a.add(1);      // bucket 0
    a.add(1024);   // bucket 10
    b.add(2);      // bucket 1
    b.add(1500);   // bucket 10

    MetricSink sink;
    sink.histogram("h", a);
    sink.histogram("h", b);
    const MetricSample &s = sink.samples().at("h");
    ASSERT_GE(s.buckets.size(), 11u);
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[10], 2u);
}

TEST(MetricRegistry, OwnedReferencesAreStable)
{
    MetricRegistry reg;
    std::uint64_t &c = reg.counter("a.count");
    // Creating more metrics must not invalidate the reference.
    for (int i = 0; i < 100; ++i)
        reg.counter("filler." + std::to_string(i));
    c = 41;
    ++reg.counter("a.count");
    EXPECT_EQ(reg.snapshot().at("a.count").counter, 42u);
}

TEST(MetricRegistry, OwnedSummaryAndAbsorbedHistogram)
{
    MetricRegistry reg;
    reg.summary("lat").add(2.0);
    reg.summary("lat").add(4.0);
    {
        Log2Histogram sizes;
        sizes.add(8);
        MetricSource src(reg, "sizes", [&](MetricSink &sink) {
            sink.histogram("h", sizes);
        });
    }

    SampleMap snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("lat").summary.mean(), 3.0);
    ASSERT_EQ(snap.at("sizes.h").type, MetricType::Histogram);
    EXPECT_EQ(snap.at("sizes.h").buckets.at(3), 1u);
}

TEST(MetricRegistry, SourcesArePrefixedAndLive)
{
    MetricRegistry reg;
    std::uint64_t faults = 0;
    auto id = reg.addSource("kernel", [&](MetricSink &sink) {
        sink.counter("faults", faults);
    });
    EXPECT_EQ(reg.sourceCount(), 1u);

    faults = 3;
    EXPECT_EQ(reg.snapshot().at("kernel.faults").counter, 3u);
    faults = 10;
    EXPECT_EQ(reg.snapshot().at("kernel.faults").counter, 10u);

    reg.removeSource(id, /*absorb=*/false);
    EXPECT_EQ(reg.sourceCount(), 0u);
    EXPECT_EQ(reg.snapshot().count("kernel.faults"), 0u);
}

TEST(MetricRegistry, RemovedSourceIsAbsorbed)
{
    MetricRegistry reg;
    auto id = reg.addSource("kernel", [](MetricSink &sink) {
        sink.counter("faults", 7);
    });
    reg.removeSource(id);
    // The final values keep contributing after the source is gone.
    EXPECT_EQ(reg.snapshot().at("kernel.faults").counter, 7u);
}

TEST(MetricRegistry, AbsorbedAndLiveMergeByName)
{
    // Two short-lived "kernels" plus one live one: totals add up, as
    // when a bench builds one system per table row.
    MetricRegistry reg;
    for (int i = 0; i < 2; ++i) {
        MetricSource src(reg, "kernel", [](MetricSink &sink) {
            sink.counter("faults", 5);
        });
    }
    auto live = reg.addSource("kernel", [](MetricSink &sink) {
        sink.counter("faults", 2);
    });
    EXPECT_EQ(reg.snapshot().at("kernel.faults").counter, 12u);
    reg.removeSource(live, false);
}

TEST(MetricRegistry, SourceAbsorbsBeforeBackingStateDies)
{
    // Regression for the absorb-on-destroy lifetime contract: a pull
    // source's callback reads state owned by the same object. The
    // final pull must happen at source destruction, while the backing
    // state is still alive, and registry reads after that must serve
    // the absorbed values without ever re-invoking the callback.
    MetricRegistry reg;
    bool backing_alive = false;
    {
        std::vector<std::uint64_t> backing{41};
        backing_alive = true;
        MetricSource src(reg, "sim", [&](MetricSink &sink) {
            ASSERT_TRUE(backing_alive)
                << "source pulled after its backing state died";
            sink.counter("events", backing[0]);
        });
        backing[0] = 42;
        EXPECT_EQ(reg.snapshot().at("sim.events").counter, 42u);
        // `src` dies before `backing` (reverse declaration order):
        // the absorb-on-destroy pull still sees live state.
    }
    backing_alive = false;
    EXPECT_EQ(reg.snapshot().at("sim.events").counter, 42u);
    EXPECT_EQ(reg.snapshot().at("sim.events").counter, 42u);
    EXPECT_EQ(reg.sourceCount(), 0u);
}

TEST(MetricRegistry, MetricSourceMoveTransfersOwnership)
{
    MetricRegistry reg;
    MetricSource a(reg, "x",
                   [](MetricSink &sink) { sink.counter("c", 1); });
    MetricSource b = std::move(a);
    EXPECT_EQ(reg.sourceCount(), 1u);
    MetricSource c;
    c = std::move(b);
    EXPECT_EQ(reg.sourceCount(), 1u);
    // Destruction of `c` (end of scope) removes and absorbs once.
}

TEST(MetricRegistry, ResetOwnedKeepsSources)
{
    MetricRegistry reg;
    reg.counter("owned") = 5;
    auto id = reg.addSource("src", [](MetricSink &sink) {
        sink.counter("c", 1);
    });
    reg.resetOwned();
    SampleMap snap = reg.snapshot();
    EXPECT_EQ(snap.count("owned"), 0u);
    EXPECT_EQ(snap.at("src.c").counter, 1u);
    reg.removeSource(id, false);
}

TEST(MetricRegistry, WriteJson)
{
    MetricRegistry reg;
    reg.counter("kernel.faults") = 3;
    reg.summary("lat").add(1.0);
    auto id = reg.addSource("src", [](MetricSink &sink) {
        sink.summary("free_pages", 12.5);
        Log2Histogram sizes;
        sizes.add(4);
        sink.histogram("sizes", sizes);
    });

    JsonWriter w;
    reg.writeJson(w);
    reg.removeSource(id, false);
    ASSERT_TRUE(w.complete());
    const std::string out = w.str();
    EXPECT_NE(out.find("\"kernel.faults\":3"), std::string::npos);
    EXPECT_NE(out.find("\"src.free_pages\":{\"count\":1,\"sum\":12.5"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"lat\":{\"count\":1"), std::string::npos);
    EXPECT_NE(out.find("\"log2_buckets\""), std::string::npos);
}

TEST(MetricRegistry, PointValuesMergeAsSummaries)
{
    // Two allocators of 64 free pages each report "free_pages"; once
    // both are absorbed the merged metric still says each read 64,
    // rather than one bare total of 128.
    MetricRegistry reg;
    for (int i = 0; i < 2; ++i) {
        FrameArray frames(64);
        BuddyAllocator buddy(frames, 0, 64, /*max_order=*/6);
        MetricSource src(reg, "buddy", [&](MetricSink &sink) {
            buddy.collectMetrics(sink);
        });
    }

    JsonWriter w;
    reg.writeJson(w);
    std::string err;
    const auto doc = JsonValue::parse(w.str(), &err);
    ASSERT_TRUE(doc) << err;
    const JsonValue *free = doc->find("buddy.free_pages");
    ASSERT_NE(free, nullptr) << w.str();
    ASSERT_TRUE(free->isObject()) << w.str();
    EXPECT_EQ(free->numberOr("count", 0), 2.0);
    EXPECT_EQ(free->numberOr("min", 0), 64.0);
    EXPECT_EQ(free->numberOr("max", 0), 64.0);
    EXPECT_EQ(free->numberOr("sum", 0), 128.0);
    EXPECT_EQ(free->numberOr("mean", 0), 64.0);
}

TEST(MetricRegistry, WriteJsonOmitsEmptySections)
{
    MetricRegistry reg;
    reg.summary("empty.summary");
    reg.summary("fed.summary").add(2.0);
    // A zero counter and a zero point value are values, not empty
    // sections.
    reg.counter("zero.counter");
    auto id = reg.addSource("src", [](MetricSink &sink) {
        sink.summary("empty_summary", Summary{});
        sink.histogram("empty_hist", Log2Histogram{});
        Log2Histogram h;
        h.add(3);
        sink.histogram("fed_hist", h);
        sink.summary("zero_point", 0.0);
    });

    JsonWriter w;
    reg.writeJson(w);
    reg.removeSource(id, false);
    ASSERT_TRUE(w.complete());
    std::string err;
    const auto doc = JsonValue::parse(w.str(), &err);
    ASSERT_TRUE(doc) << err;
    for (const char *gone :
         {"empty.summary", "src.empty_summary", "src.empty_hist"})
        EXPECT_EQ(doc->find(gone), nullptr) << gone;
    for (const char *kept :
         {"fed.summary", "src.fed_hist", "zero.counter", "src.zero_point"})
        EXPECT_NE(doc->find(kept), nullptr) << kept;
    EXPECT_DOUBLE_EQ(doc->find("fed.summary")->numberOr("count", 0), 1.0);
}

TEST(MetricRegistry, GlobalIsSingleton)
{
    EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
}

TEST(Phase, AccumulatesWallTimeOnly)
{
    MetricRegistry reg;
    Phase phase = Phase::bind(reg, "test.region");
    {
        ScopedPhase timer(phase);
    }
    {
        ScopedPhase timer(phase);
    }

    SampleMap snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    const Summary &wall = snap.at("phase.test.region.wall_us").summary;
    EXPECT_EQ(wall.count(), 2u);
    EXPECT_GE(wall.min(), 0.0);

    // Simulated cycles are the kernels' and the translation sim's own
    // counters; a phase emits no ".cycles" key.
    JsonWriter w;
    reg.writeJson(w);
    EXPECT_NE(w.str().find("phase.test.region.wall_us"), std::string::npos);
    EXPECT_EQ(w.str().find(".cycles"), std::string::npos) << w.str();
}
