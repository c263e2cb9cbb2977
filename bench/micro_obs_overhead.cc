/**
 * @file
 * Micro-benchmark (google-benchmark): the observability tax. A bare
 * hot loop (no instrumentation at all) is the reference; next to it
 * run the cost of a CounterSet increment through the heterogeneous
 * string_view lookup and of one MetricRegistry snapshot.
 *
 * The observatory and attribution taxes ride the same harness: a
 * detached StateSampler or a switched-off attribution table costs the
 * hot path one branch on a null pointer, an attached idle sampler
 * costs an increment + compare, and the full capture / delta encode
 * prices are only paid at the sampling cadence.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "base/stats.hh"
#include "contig/analysis.hh"
#include "core/experiment.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/observatory.hh"

using namespace contig;

namespace
{

/** The work the instrumentation rides on: a trivial LCG step. */
inline std::uint64_t
step(std::uint64_t x)
{
    return x * 6364136223846793005ull + 1442695040888963407ull;
}

void
BM_BareLoop(benchmark::State &state)
{
    std::uint64_t x = 1;
    for (auto _ : state) {
        x = step(x);
        benchmark::DoNotOptimize(x);
    }
}

void
BM_CounterInc(benchmark::State &state)
{
    CounterSet counters;
    for (auto _ : state)
        counters.inc("migrate.pages", 1);
    benchmark::DoNotOptimize(counters.get("migrate.pages"));
}

void
BM_RegistrySnapshot(benchmark::State &state)
{
    obs::MetricRegistry reg;
    for (int i = 0; i < 64; ++i)
        reg.counter("bench.counter_" + std::to_string(i)) = i;
    reg.summary("bench.lat").add(1.0);
    for (auto _ : state) {
        auto snap = reg.snapshot();
        benchmark::DoNotOptimize(snap.size());
    }
}

/**
 * The fault path with no sampler registered: exactly the null-pointer
 * branch FaultEngine::finishFault pays while detached. Compare
 * against BM_BareLoop for the "disabled = one branch" claim.
 */
void
BM_SamplerDetached(benchmark::State &state)
{
    obs::StateSampler *sampler = nullptr;
    benchmark::DoNotOptimize(sampler);
    std::uint64_t x = 1;
    for (auto _ : state) {
        x = step(x);
        if (sampler)
            sampler->onFaultTick();
        benchmark::DoNotOptimize(x);
    }
}

/** Attached but idle: one counter increment + compare per fault. */
void
BM_SamplerIdle(benchmark::State &state)
{
    obs::SamplerConfig cfg;
    cfg.periodFaults = 1ull << 62; // never fires
    cfg.keepSnapshots = false;
    obs::StateSampler sampler(cfg);
    std::uint64_t x = 1;
    for (auto _ : state) {
        x = step(x);
        sampler.onFaultTick();
        benchmark::DoNotOptimize(x);
    }
}

/** One full capture of a populated kernel (paid at the cadence). */
void
BM_SnapshotCapture(benchmark::State &state)
{
    Kernel kernel(kernelConfigFor(PolicyKind::Thp),
                  makePolicy(PolicyKind::Thp));
    Process &proc = kernel.createProcess("bm_capture");
    Vma &vma = kernel.mmapAnon(proc, 64ull << 20);
    for (std::uint64_t off = 0; off < vma.bytes(); off += kPageSize)
        kernel.touch(proc, vma.start() + off, Access::Write);

    obs::SamplerConfig cfg;
    cfg.keepSnapshots = false;
    obs::StateSampler sampler(cfg);
    sampler.addSegProbe(
        "1d", &proc, [&proc] { return extractSegs(proc.pageTable()); },
        true);
    sampler.attachKernel(kernel);
    for (auto _ : state) {
        const obs::Snapshot &snap = sampler.sampleNow();
        benchmark::DoNotOptimize(snap.zones.size());
    }
}

/**
 * The cost-attribution tax, switch off: exactly the null-pointer
 * branch TranslationSim::runChunk pays per access when --attrib is
 * not given. Compare against BM_BareLoop for the "disabled = one
 * branch" claim (gated by obs_overhead_gate.py).
 */
void
BM_AttribOff(benchmark::State &state)
{
    std::unique_ptr<obs::XlatAttribution> attrib;
    benchmark::DoNotOptimize(attrib);
    std::uint64_t x = 1;
    for (auto _ : state) {
        x = step(x);
        if (attrib)
            attrib->record(obs::XlatOutcome::FullWalk, x, 10, 10);
        benchmark::DoNotOptimize(x);
    }
}

/**
 * Switch on: classify the vpn against a 64-run contiguity index
 * (binary search), bump the (outcome x class) cell, offer the event
 * to the exemplar reservoir. Priced for reference, not gated.
 */
void
BM_AttribOn(benchmark::State &state)
{
    std::vector<Seg> segs;
    for (std::uint64_t i = 0; i < 64; ++i)
        segs.push_back(Seg{i * 1024, i * 1024, 512});
    auto idx = std::make_shared<const obs::ContigClassIndex>(segs);
    obs::XlatAttribution attrib("bench");
    attrib.setIndex(idx);
    std::uint64_t x = 1;
    for (auto _ : state) {
        x = step(x);
        attrib.record(obs::XlatOutcome::FullWalk, x % (64 * 1024),
                      (x & 63) + 1, (x & 63) + 1);
        benchmark::DoNotOptimize(x);
    }
    benchmark::DoNotOptimize(attrib.events());
}

/** Delta-encoding one snapshot against its predecessor. */
void
BM_DeltaEncode(benchmark::State &state)
{
    obs::FlatSnap prev, next;
    for (int i = 0; i < 256; ++i) {
        const std::string key = "zone0.k" + std::to_string(i);
        prev[key] = i;
        next[key] = i + (i % 16 == 0 ? 1 : 0); // 1/16 keys change
    }
    obs::TimelineRecord rec;
    rec.domain = "bm";
    for (auto _ : state) {
        obs::FlatDelta delta = obs::diffFlat(prev, next);
        rec.set = std::move(delta.set);
        rec.del = std::move(delta.del);
        const std::string line = obs::encodeTimelineRecord(rec);
        benchmark::DoNotOptimize(line.size());
    }
}

} // namespace

BENCHMARK(BM_BareLoop);
BENCHMARK(BM_CounterInc);
BENCHMARK(BM_RegistrySnapshot);
BENCHMARK(BM_SamplerDetached);
BENCHMARK(BM_SamplerIdle);
BENCHMARK(BM_SnapshotCapture);
BENCHMARK(BM_AttribOff);
BENCHMARK(BM_AttribOn);
BENCHMARK(BM_DeltaEncode);
