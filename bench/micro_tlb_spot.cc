/**
 * @file
 * Micro-benchmark: throughput of the translation components — TLB
 * hierarchy lookups, the SpOT prediction engine, and the full
 * virtualized replay pipeline — the per-access cost that bounds how
 * many simulated accesses the figure benches can afford.
 *
 * Emits schema_version-2 BenchOutput rows. All simulated counters are
 * deterministic and gated by the committed baseline
 * (bench/baselines/BENCH_micro_tlb_spot.json); wall-clock columns are
 * named `*.wall_us` so `contig_inspect check-baseline` ignores them.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/bench_io.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "tlb/replay.hh"
#include "workloads/access_stream.hh"

using namespace contig;

namespace
{

constexpr std::uint64_t kTlbLookups = 1u << 20;
constexpr std::uint64_t kSpotIters = 1u << 20;
constexpr std::uint64_t kPipelineAccesses = 1u << 20;

double
wallUs(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

void
tlbRows(Report &rep)
{
    for (unsigned pages_log2 : {3u, 8u}) {
        TlbHierarchy tlb(ScaledDefaults::tlb());
        Rng rng(7);
        const std::uint64_t pages = 1u << pages_log2;
        std::uint64_t l1 = 0, l2 = 0, miss = 0;
        const double us = wallUs([&] {
            for (std::uint64_t i = 0; i < kTlbLookups; ++i) {
                Vpn vpn = rng.below(pages) * 512;
                switch (tlb.access(vpn, kHugeOrder)) {
                  case TlbLevel::L1: ++l1; break;
                  case TlbLevel::L2: ++l2; break;
                  case TlbLevel::Miss:
                    ++miss;
                    tlb.fill(vpn, kHugeOrder);
                    break;
                }
            }
        });
        rep.row({"tlb_2m_" + std::to_string(pages) + "p",
                 std::to_string(kTlbLookups), std::to_string(l1),
                 std::to_string(l2), std::to_string(miss),
                 Report::num(us, 1),
                 Report::num(kTlbLookups / us, 2)});
    }
}

void
spotRow(Report &rep)
{
    SpotEngine spot(ScaledDefaults::spot());
    Rng rng(7);
    std::uint64_t correct = 0, mispred = 0, nopred = 0;
    const double us = wallUs([&] {
        for (std::uint64_t i = 0; i < kSpotIters; ++i) {
            Addr pc = 0x400000 + (rng.below(8) << 6);
            spot.predict(pc);
            switch (spot.update(pc, 12345, true)) {
              case SpotOutcome::Correct: ++correct; break;
              case SpotOutcome::Mispredicted: ++mispred; break;
              case SpotOutcome::NoPrediction: ++nopred; break;
            }
        }
    });
    rep.row({"spot_predict_update", std::to_string(kSpotIters),
             std::to_string(correct), std::to_string(mispred),
             std::to_string(nopred), Report::num(us, 1),
             Report::num(kSpotIters / us, 2)});
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("micro_tlb_spot", argc, argv);
    out.note("tlb_lookups", kTlbLookups);
    out.note("spot_iters", kSpotIters);
    out.note("pipeline_accesses", kPipelineAccesses);

    Report comp("micro — translation component throughput");
    comp.header({"component", "items", "c0", "c1", "c2",
                 "items.wall_us", "mitems_s.wall_us"});
    tlbRows(comp);
    spotRow(comp);
    out.add(comp);
    comp.print();

    // The full virtualized per-access pipeline on a real workload:
    // one pre-generated pagerank access trace replayed through each
    // scheme, so the three rows see the identical access sequence.
    VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, 7);
    auto wl = makeWorkload("pagerank", {0.25, 7});
    Process &proc = sys.guest().createProcess("bench");
    wl->setup(proc);

    std::vector<MemAccess> trace(kPipelineAccesses);
    {
        Rng rng(9);
        wl->fillAccesses(rng, trace.data(), trace.size());
    }

    Report pipe("micro — virtualized replay pipeline (pagerank 0.25)");
    pipe.header({"scheme", "accesses", "l1_hits", "l2_hits", "walks",
                 "exposed_cycles", "replay.wall_us", "maccs_s.wall_us"});
    const struct { const char *name; XlatScheme scheme; } kSchemes[] = {
        {"base", XlatScheme::Base},
        {"spot", XlatScheme::Spot},
        {"rmm", XlatScheme::Rmm},
    };
    for (const auto &[name, scheme] : kSchemes) {
        XlatConfig cfg;
        cfg.tlb = ScaledDefaults::tlb();
        cfg.walker = ScaledDefaults::walker();
        cfg.scheme = scheme;
        cfg.spot = ScaledDefaults::spot();
        cfg.rangeTlb = ScaledDefaults::rangeTlb();
        ReplayEngine engine(cfg, 1, wl->process()->pageTable(), sys.vm());
        if (scheme == XlatScheme::Rmm)
            engine.setSegments(extract2d(*wl->process(), sys.vm()));

        const std::uint64_t chunk = AccessStream::kDefaultChunk;
        const double us = wallUs([&] {
            for (std::uint64_t off = 0; off < trace.size();
                 off += chunk) {
                const std::uint64_t n =
                    std::min<std::uint64_t>(chunk, trace.size() - off);
                engine.replayChunk(&trace[off], n);
            }
        });
        const XlatStats s = engine.mergedStats();
        pipe.row({name, std::to_string(s.accesses),
                  std::to_string(s.l1Hits), std::to_string(s.l2Hits),
                  std::to_string(s.walks),
                  std::to_string(s.exposedCycles), Report::num(us, 1),
                  Report::num(s.accesses / us, 2)});
    }
    out.add(pipe);
    pipe.print();

    out.write();
    return 0;
}
