#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/json.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"

using namespace contig;
using namespace contig::obs;

namespace
{

/** Reset the global sink around each test (it is process-wide). */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        TraceSink::global().setCategoryMask(0);
        TraceSink::global().setCapacity(1024);
    }

    void
    TearDown() override
    {
        TraceSink::global().setCategoryMask(0);
        TraceSink::global().clear();
    }

    std::string
    tmpPath(const char *name)
    {
        return ::testing::TempDir() + name;
    }

    std::string
    slurp(const std::string &path)
    {
        std::ifstream in(path);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }
};

} // namespace

TEST_F(TraceTest, MaskGatesRecording)
{
    TraceSink &sink = TraceSink::global();
    CONTIG_TRACE(TraceEventKind::PageFault, 1, 2, 0);
    EXPECT_EQ(sink.size(), 0u);

    sink.setCategoryMask(kCatFault);
    CONTIG_TRACE(TraceEventKind::PageFault, 1, 2, 0);
    CONTIG_TRACE(TraceEventKind::Alloc, 9, 9, 9); // alloc still masked
    EXPECT_EQ(sink.size(), 1u);

    sink.setCategoryMask(kCatAll);
    CONTIG_TRACE(TraceEventKind::Alloc, 9, 9, 9);
    EXPECT_EQ(sink.size(), 2u);
}

TEST_F(TraceTest, WantsIsExactBitTest)
{
    TraceSink &sink = TraceSink::global();
    sink.setCategoryMask(kCatSpot | kCatWalk);
    EXPECT_TRUE(sink.wants(kCatSpot));
    EXPECT_TRUE(sink.wants(kCatWalk));
    EXPECT_FALSE(sink.wants(kCatFault));
    EXPECT_FALSE(sink.wants(kCatPhase));
}

TEST_F(TraceTest, EventsCarryArgsAndKind)
{
    TraceSink &sink = TraceSink::global();
    sink.setCategoryMask(kCatAll);
    sink.record(TraceEventKind::Migration, 100, 200, 512);

    auto evs = sink.events();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].kind, TraceEventKind::Migration);
    EXPECT_EQ(evs[0].args[0], 100u);
    EXPECT_EQ(evs[0].args[1], 200u);
    EXPECT_EQ(evs[0].args[2], 512u);
}

TEST_F(TraceTest, RingOverwritesOldest)
{
    TraceSink &sink = TraceSink::global();
    sink.setCapacity(4);
    sink.setCategoryMask(kCatAll);
    for (std::uint64_t i = 0; i < 6; ++i)
        sink.record(TraceEventKind::PageFault, i, 0, 0);

    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.recorded(), 6u);
    EXPECT_EQ(sink.dropped(), 2u);
    auto evs = sink.events();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest-first: events 2..5 survive.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(evs[i].args[0], i + 2);
}

TEST_F(TraceTest, RingSurvivesMultipleWraparounds)
{
    TraceSink &sink = TraceSink::global();
    sink.setCapacity(8);
    sink.setCategoryMask(kCatAll);
    // 3.5 laps around an 8-slot ring.
    for (std::uint64_t i = 0; i < 28; ++i)
        sink.record(TraceEventKind::Alloc, i, 0, 0);

    EXPECT_EQ(sink.size(), 8u);
    EXPECT_EQ(sink.recorded(), 28u);
    EXPECT_EQ(sink.dropped(), 20u);
    auto evs = sink.events();
    ASSERT_EQ(evs.size(), 8u);
    // Oldest-first readback straddles the physical wrap point.
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(evs[i].args[0], i + 20);
}

TEST_F(TraceTest, SetCapacityDropsAndRestartsCleanly)
{
    TraceSink &sink = TraceSink::global();
    sink.setCapacity(4);
    sink.setCategoryMask(kCatAll);
    for (std::uint64_t i = 0; i < 6; ++i)
        sink.record(TraceEventKind::PageFault, i, 0, 0);
    ASSERT_EQ(sink.size(), 4u);

    sink.setCapacity(2);
    EXPECT_EQ(sink.size(), 0u);
    sink.record(TraceEventKind::PageFault, 100, 0, 0);
    sink.record(TraceEventKind::PageFault, 101, 0, 0);
    sink.record(TraceEventKind::PageFault, 102, 0, 0);
    auto evs = sink.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].args[0], 101u);
    EXPECT_EQ(evs[1].args[0], 102u);
}

TEST_F(TraceTest, MaskFiltersPerKindAcrossCategories)
{
    TraceSink &sink = TraceSink::global();
    sink.setCategoryMask(kCatMigrate | kCatDaemon);

    // The macro is the gate the hot paths use — exercise it for one
    // kind in every masked state.
    CONTIG_TRACE(TraceEventKind::Migration, 1, 2, 3);   // in mask
    CONTIG_TRACE(TraceEventKind::DaemonTick, 7, 0, 0);  // in mask
    CONTIG_TRACE(TraceEventKind::PageFault, 9, 9, 9);   // masked off
    CONTIG_TRACE(TraceEventKind::Alloc, 9, 9, 9);       // masked off
    CONTIG_TRACE(TraceEventKind::SpotCorrect, 9, 9, 0); // masked off

    auto evs = sink.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].kind, TraceEventKind::Migration);
    EXPECT_EQ(evs[1].kind, TraceEventKind::DaemonTick);

    // Every kind's category bit must match the descriptor table.
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(TraceEventKind::NumKinds); ++k)
        EXPECT_EQ(traceCategoryOf(static_cast<TraceEventKind>(k)),
                  kTraceEventDescs[k].category);
}

TEST_F(TraceTest, InternIsStableAndDeduplicated)
{
    TraceSink &sink = TraceSink::global();
    const char *a = sink.intern("kernel.fault");
    const char *b = sink.intern("kernel.fault");
    const char *c = sink.intern("xlat.walk");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_STREQ(c, "xlat.walk");
}

TEST_F(TraceTest, ChromeTraceExport)
{
    TraceSink &sink = TraceSink::global();
    sink.setCategoryMask(kCatAll);
    sink.record(TraceEventKind::SpotMispredict, 0x400000, 42, 0);
    sink.recordSpan(sink.intern("kernel.fault"), 1000, 5000, 77);

    const std::string path = tmpPath("chrome_trace.json");
    ASSERT_TRUE(sink.writeChromeTrace(path));
    const std::string doc = slurp(path);

    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"spot_mispredict\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"kernel.fault\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"dur\":5"), std::string::npos); // 5000ns = 5us
    EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceTest, JsonlExport)
{
    TraceSink &sink = TraceSink::global();
    sink.setCategoryMask(kCatAll);
    sink.record(TraceEventKind::TlbL2Miss, 0xabc, 0, 0);
    sink.record(TraceEventKind::NestedWalk, 0xabc, 24, 960);

    const std::string path = tmpPath("trace.jsonl");
    ASSERT_TRUE(sink.writeJsonl(path));
    std::ifstream in(path);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"ts_ns\""), std::string::npos);
    }
    EXPECT_EQ(lines, 2);
    std::remove(path.c_str());
}

TEST_F(TraceTest, ParseCategories)
{
    EXPECT_EQ(parseTraceCategories("all"), kCatAll);
    EXPECT_EQ(parseTraceCategories(""), kCatAll);
    EXPECT_EQ(parseTraceCategories("fault"), kCatFault);
    EXPECT_EQ(parseTraceCategories("fault,spot,walk"),
              kCatFault | kCatSpot | kCatWalk);
    EXPECT_EQ(parseTraceCategories("promote,tlb,replay"),
              kCatPromote | kCatTlb | kCatReplay);
    EXPECT_EQ(parseTraceCategories("0x1f"), 0x1fu);
    EXPECT_EQ(parseTraceCategories("0XfF"), 0xffu);
    EXPECT_EQ(parseTraceCategories("bogus"), 0u);
    // One unknown token voids the whole list instead of being dropped.
    EXPECT_EQ(parseTraceCategories("fault,bogus"), 0u);
    EXPECT_EQ(parseTraceCategories("fault,"), 0u);
    // Hex masks must be all hex digits and fit 32 bits.
    EXPECT_EQ(parseTraceCategories("0x1fz"), 0u);
    EXPECT_EQ(parseTraceCategories("0x 1f"), 0u);
    EXPECT_EQ(parseTraceCategories("0x-1"), 0u);
    EXPECT_EQ(parseTraceCategories("0x123456789"), 0u);
}

TEST_F(TraceTest, PhaseAccumulatesAndEmitsSpans)
{
    TraceSink &sink = TraceSink::global();
    sink.setCategoryMask(kCatPhase);

    MetricRegistry reg;
    Phase phase = Phase::bind(reg, "test.region");
    Cycles sim = 0;
    {
        ScopedPhase timer(phase, &sim);
        sim += 1234;
    }
    {
        ScopedPhase timer(phase, &sim);
        sim += 766;
    }

    SampleMap snap = reg.snapshot();
    EXPECT_EQ(snap.at("phase.test.region.wall_us").summary.count(), 2u);
    EXPECT_DOUBLE_EQ(snap.at("phase.test.region.cycles").summary.sum(),
                     2000.0);
    ASSERT_EQ(sink.size(), 2u);
    auto evs = sink.events();
    EXPECT_EQ(evs[0].kind, TraceEventKind::PhaseSpan);
    EXPECT_STREQ(evs[0].spanName, "test.region");
    EXPECT_EQ(evs[0].args[0], 1234u);
}

TEST_F(TraceTest, DisabledPhaseStillAccumulatesMetrics)
{
    TraceSink::global().setCategoryMask(0);
    MetricRegistry reg;
    Phase phase = Phase::bind(reg, "quiet");
    {
        ScopedPhase timer(phase);
    }
    EXPECT_EQ(TraceSink::global().size(), 0u);
    EXPECT_EQ(reg.snapshot().at("phase.quiet.wall_us").summary.count(),
              1u);
}

TEST_F(TraceTest, JsonlRoundTripsSpans)
{
    TraceSink &sink = TraceSink::global();
    sink.setCategoryMask(kCatAll);
    sink.record(TraceEventKind::TlbL2Miss, 0xabc, 0, 0);
    sink.recordSpan(sink.intern("kernel.fault"), 100, 40, 2);

    const std::string path = tmpPath("span_trace.jsonl");
    ASSERT_TRUE(sink.writeJsonl(path));
    std::ifstream in(path);
    std::string line;
    std::vector<JsonValue> docs;
    while (std::getline(in, line)) {
        std::string err;
        auto doc = JsonValue::parse(line, &err);
        ASSERT_TRUE(doc) << err;
        docs.push_back(std::move(*doc));
    }
    std::remove(path.c_str());

    ASSERT_EQ(docs.size(), 2u);
    // One simulator thread: JSONL records carry no thread id.
    EXPECT_EQ(docs[0].find("tid"), nullptr);
    const JsonValue *name = docs[1].find("name");
    ASSERT_TRUE(name && name->isString());
    EXPECT_EQ(name->asString(), "kernel.fault");
    EXPECT_DOUBLE_EQ(docs[1].numberOr("ts_ns", -1), 100.0);
    EXPECT_DOUBLE_EQ(docs[1].numberOr("dur_ns", -1), 40.0);
}
