/**
 * The cell pool (core/cells): cells and pipelined legs run in forked
 * children return the same results, and leave the same merged
 * metrics, run record and attribution tables, as the same legs run
 * inline; a leg sees the state of its spawn, and no more than `jobs`
 * children are alive at once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/mman.h>

#include "base/json.hh"
#include "core/cells.hh"
#include "core/experiment.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/observatory.hh"

using namespace contig;

namespace
{

struct CellOut
{
    std::uint64_t faults = 0;
    std::uint64_t mappingsFor99 = 0;
    double cov32 = 0.0;
    double overhead = 0.0;
};

/** Even cells run a small native machine, odd ones a small VM. */
CellOut
smallCell(std::size_t i)
{
    static const PolicyKind kKinds[] = {PolicyKind::Thp, PolicyKind::Ca,
                                        PolicyKind::Ingens};
    const PolicyKind kind = kKinds[i % 3];
    WorkloadConfig cfg;
    cfg.scale = 0.05;
    cfg.seed = 3 + i;
    CellOut out;
    if (i % 2 == 0) {
        NativeSystem sys(kind, 5 + i);
        auto wl = makeWorkload("pagerank", cfg);
        const ContigRunResult r = sys.run(*wl);
        out.faults = r.faults;
        out.mappingsFor99 = r.final.mappingsFor99;
        out.cov32 = r.final.cov32;
        sys.finish(*wl);
    } else {
        VirtSystem sys(kind, kind, 5 + i);
        auto wl = makeWorkload("xsbench", cfg);
        Process &proc = sys.guest().createProcess("xsbench");
        wl->setup(proc);
        out.faults = sys.guest().faultStats().faults;
        out.overhead = runTranslation(*wl, &sys.vm(), XlatScheme::Spot,
                                      20000)
                           .overhead.overhead;
        wl->teardown();
        sys.guest().exitProcess(proc);
    }
    return out;
}

/** What one arm of a comparison leaves behind. */
template <typename Out>
struct ArmOf
{
    std::vector<Out> out;
    /** Merged metrics as JSON, host wall-clock summaries dropped. */
    std::string metrics;
    std::string run;
    /** The bench JSON's "attribution" section ("{}" without one). */
    std::string attribution;
};

using Arm = ArmOf<CellOut>;

void
resetState()
{
    obs::MetricRegistry::global().resetOwned();
    obs::RunInfo::global().clear();
    obs::AttribRegistry::global().reset();
}

/** Fill everything but `out` from the process-wide registries. */
template <typename Out>
void
captureState(ArmOf<Out> &arm)
{
    obs::SampleMap samples = obs::MetricRegistry::global().snapshot();
    std::erase_if(samples, [](const auto &kv) {
        return kv.first.find("wall") != std::string::npos;
    });
    obs::MetricRegistry simulated;
    simulated.absorb(samples);
    JsonWriter m;
    simulated.writeJson(m);
    arm.metrics = m.str();
    JsonWriter r;
    obs::RunInfo::global().writeJson(r);
    arm.run = r.str();
    JsonWriter a;
    a.beginObject();
    obs::AttribRegistry::global().writeSection(a);
    a.endObject();
    arm.attribution = a.str();
}

Arm
runArm(std::size_t n, unsigned jobs)
{
    resetState();
    Arm arm;
    arm.out = runCells<CellOut>(n, smallCell, jobs);
    captureState(arm);
    return arm;
}

/** One SpOT leg's numbers. */
struct LegOut
{
    std::uint64_t walks = 0;
    std::uint64_t correct = 0;
    double overhead = 0.0;
};

using PipelineArm = ArmOf<LegOut>;

/**
 * Three workloads run in turn in one small CA/CA VM without reboots.
 * After each one's setup, a SpOT leg replays it off the VM as aged so
 * far, and the parent tears the workload down and moves on, as fig14
 * does.
 */
PipelineArm
runPipeline(unsigned jobs)
{
    resetState();
    PipelineArm arm;
    {
        VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, 11);
        CellPool<LegOut> pool(3, jobs);
        for (const char *name : {"xsbench", "pagerank", "svm"}) {
            WorkloadConfig cfg;
            cfg.scale = 0.05;
            cfg.seed = 4;
            auto wl = makeWorkload(name, cfg);
            Process &proc = sys.guest().createProcess(name);
            wl->setup(proc);
            pool.spawn([&] {
                const XlatRunResult r = runTranslation(
                    *wl, &sys.vm(), XlatScheme::Spot, 50000);
                return LegOut{r.stats.walks, r.stats.spotCorrect,
                              r.overhead.overhead};
            });
            wl->teardown();
            sys.guest().exitProcess(proc);
        }
        arm.out = pool.join();
    }
    captureState(arm);
    return arm;
}

} // namespace

TEST(CellsTest, ForkedMatchesInline)
{
    const std::size_t n = 6;
    // A plain arm, then an attribution arm with the tables --attrib
    // turns on.
    for (const bool attrib : {false, true}) {
        SCOPED_TRACE(attrib ? "attribution on" : "plain");
        obs::AttribRegistry::setEnabled(attrib);
        const Arm serial = runArm(n, 1);
        const Arm forked = runArm(n, 3);
        obs::AttribRegistry::setEnabled(false);

        ASSERT_EQ(serial.out.size(), n);
        ASSERT_EQ(forked.out.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            SCOPED_TRACE(i);
            EXPECT_GT(serial.out[i].faults, 0u);
            EXPECT_EQ(serial.out[i].faults, forked.out[i].faults);
            EXPECT_EQ(serial.out[i].mappingsFor99,
                      forked.out[i].mappingsFor99);
            EXPECT_EQ(serial.out[i].cov32, forked.out[i].cov32);
            EXPECT_EQ(serial.out[i].overhead, forked.out[i].overhead);
        }
        EXPECT_NE(serial.metrics.find("guest.faults"), std::string::npos);
        EXPECT_EQ(serial.metrics, forked.metrics);
        EXPECT_NE(serial.run.find("\"kernel.instances\":6"),
                  std::string::npos);
        EXPECT_EQ(serial.run, forked.run);
        // Translation tables and the fault table, or no section.
        EXPECT_EQ(serial.attribution.find("\"xlat\":{\"") !=
                      std::string::npos,
                  attrib);
        EXPECT_EQ(serial.attribution.find("\"fault\":{") !=
                      std::string::npos,
                  attrib);
        EXPECT_EQ(serial.attribution, forked.attribution);
    }
    obs::AttribRegistry::global().reset();
}

TEST(CellsTest, ExportIsExact)
{
    // A counter above 2^53 and non-integral doubles, one contribution
    // per cell: the merge must reproduce the inline sums bit for bit.
    // Earlier cells sleep longer, so they finish last; "test.order"
    // reads 1e16 only when cell 0's 1e16 is added first.
    auto cell = [](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3 * (7 - i)));
        obs::MetricRegistry &reg = obs::MetricRegistry::global();
        reg.counter("test.big") += (std::uint64_t{1} << 60) + i;
        reg.summary("test.order").add(i == 0 ? 1e16 : 1.0);
        reg.summary("test.tenths").add(0.1 * static_cast<double>(i));
        Log2Histogram hist;
        hist.add(std::uint64_t{1} << (i * 9), i);
        obs::MetricSource src(reg, "test", [&](obs::MetricSink &sink) {
            sink.histogram("hist", hist);
        });
        obs::RunInfo::global().note("test.cell", std::uint64_t{i % 2});
        return static_cast<int>(i * i);
    };
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    auto arm = [&](unsigned jobs) {
        reg.resetOwned();
        obs::RunInfo::global().clear();
        const std::vector<int> out = runCells<int>(7, cell, jobs);
        JsonWriter run;
        obs::RunInfo::global().writeJson(run);
        return std::make_tuple(out, reg.snapshot(), run.str());
    };
    const auto [out1, snap1, run1] = arm(1);
    const auto [out3, snap3, run3] = arm(3);

    EXPECT_EQ(out1, out3);
    EXPECT_EQ(out3[6], 36);
    ASSERT_EQ(snap1.size(), snap3.size());
    EXPECT_EQ(snap3.at("test.big").counter, snap1.at("test.big").counter);
    EXPECT_GT(snap3.at("test.big").counter, std::uint64_t{1} << 62);
    EXPECT_EQ(snap3.at("test.order").summary.sum(), 1e16);
    EXPECT_EQ(snap3.at("test.order").summary.count(), 7u);
    const Summary &s1 = snap1.at("test.tenths").summary;
    const Summary &s3 = snap3.at("test.tenths").summary;
    EXPECT_EQ(s3.count(), s1.count());
    EXPECT_EQ(s3.sum(), s1.sum());
    EXPECT_EQ(s3.min(), s1.min());
    EXPECT_EQ(s3.max(), s1.max());
    EXPECT_EQ(snap3.at("test.hist").buckets, snap1.at("test.hist").buckets);
    EXPECT_EQ(run3, run1);
    reg.resetOwned();
    obs::RunInfo::global().clear();
}

TEST(CellsTest, FailedCellIsFatal)
{
    auto cell = [](std::size_t i) {
        if (i == 2)
            std::abort();
        return static_cast<int>(i);
    };
    EXPECT_DEATH(runCells<int>(5, cell, 3), "cell 2 of 5 died on signal");
}

TEST(CellsTest, PipelinedLegsMatchInline)
{
    for (const bool attrib : {false, true}) {
        SCOPED_TRACE(attrib ? "attribution on" : "plain");
        obs::AttribRegistry::setEnabled(attrib);
        const PipelineArm serial = runPipeline(1);
        const PipelineArm forked = runPipeline(3);
        obs::AttribRegistry::setEnabled(false);

        ASSERT_EQ(serial.out.size(), 3u);
        ASSERT_EQ(forked.out.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i) {
            SCOPED_TRACE(i);
            EXPECT_GT(serial.out[i].walks, 0u);
            EXPECT_EQ(serial.out[i].walks, forked.out[i].walks);
            EXPECT_EQ(serial.out[i].correct, forked.out[i].correct);
            EXPECT_EQ(serial.out[i].overhead, forked.out[i].overhead);
        }
        EXPECT_NE(serial.metrics.find("xlat.walks"), std::string::npos);
        EXPECT_NE(serial.metrics.find("guest.faults"), std::string::npos);
        EXPECT_EQ(serial.metrics, forked.metrics);
        EXPECT_EQ(serial.run, forked.run);
        // The legs' translation tables and the parent's fault table.
        EXPECT_EQ(serial.attribution.find("\"xlat\":{\"") !=
                      std::string::npos,
                  attrib);
        EXPECT_EQ(serial.attribution.find("\"fault\":{") !=
                      std::string::npos,
                  attrib);
        EXPECT_EQ(serial.attribution, forked.attribution);
    }
    resetState();
}

TEST(CellsTest, LegSeesItsSpawnTimeState)
{
    for (const unsigned jobs : {1u, 3u}) {
        SCOPED_TRACE(jobs);
        int value = 1;
        CellPool<int> pool(1, jobs);
        // A forked leg reads `value` well after the parent changed it.
        pool.spawn([&value] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return value;
        });
        value = 2;
        EXPECT_EQ(pool.join(), std::vector<int>{1});
        EXPECT_EQ(value, 2);
    }
}

TEST(CellsTest, AtMostJobsChildrenAlive)
{
    // Counters every child can write: how many legs run now, and the
    // most that ever ran at once.
    void *mem = mmap(nullptr, 2 * sizeof(std::atomic<unsigned>),
                     PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                     -1, 0);
    ASSERT_NE(mem, MAP_FAILED);
    auto *alive = new (mem) std::atomic<unsigned>(0);
    auto *peak = new (alive + 1) std::atomic<unsigned>(0);
    const std::vector<int> out = runCells<int>(
        8,
        [alive, peak](std::size_t i) {
            const unsigned now = alive->fetch_add(1) + 1;
            unsigned seen = peak->load();
            while (now > seen && !peak->compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            alive->fetch_sub(1);
            return static_cast<int>(i);
        },
        3);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_GE(peak->load(), 1u);
    EXPECT_LE(peak->load(), 3u);
    munmap(mem, 2 * sizeof(std::atomic<unsigned>));
}

TEST(CellsTest, FailedLegIsFatal)
{
    auto run = [] {
        CellPool<int> pool(4, 2);
        for (int i = 0; i < 4; ++i) {
            pool.spawn([i] {
                if (i == 1)
                    std::abort();
                return i;
            });
        }
        pool.join();
    };
    EXPECT_DEATH(run(), "cell 1 of 4 died on signal");
}
