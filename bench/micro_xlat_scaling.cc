/**
 * @file
 * Micro-benchmark: replay-engine throughput across chunk sizes, the
 * walk memo and the inner-loop engines, on the fig13 access stream
 * (pagerank under CA paging guest+host, SpOT scheme). One
 * pre-generated trace is replayed through every cell, so:
 *
 *  - every cell must report identical simulated counters: chunking
 *    is pure batching, and the memo, the engine and the probe width
 *    are wall-clock knobs — all locked by the committed baseline
 *    (bench/baselines/BENCH_micro_xlat_scaling.json);
 *  - wall-clock columns are named `*.wall_us` and ignored by
 *    `contig_inspect check-baseline`.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "base/simd.hh"
#include "core/bench_io.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "tlb/replay.hh"
#include "workloads/access_stream.hh"

using namespace contig;

namespace
{

constexpr std::uint64_t kAccesses = 2u << 20;

double
wallUs(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

struct Cell
{
    XlatStats stats;
    double replayUs = 0.0;
};

Cell
runCell(const std::vector<MemAccess> &trace, const PageTable &pt,
        const VirtualMachine &vm, std::uint64_t chunk, bool memo,
        XlatEngine xe = XlatEngine::Batched, bool force_scalar = false)
{
    XlatConfig cfg;
    cfg.tlb = ScaledDefaults::tlb();
    cfg.walker = ScaledDefaults::walker();
    cfg.scheme = XlatScheme::Spot;
    cfg.spot = ScaledDefaults::spot();
    cfg.rangeTlb = ScaledDefaults::rangeTlb();
    cfg.walker.memoEnabled = memo;
    cfg.engine = xe;

    // The scalar override only affects structures built after it, so
    // flip it around engine construction and restore straight away.
    const bool was_scalar = simd::forceScalar();
    if (force_scalar)
        simd::setForceScalar(true);
    ReplayEngine engine(cfg, 1, pt, vm);
    if (force_scalar)
        simd::setForceScalar(was_scalar);
    Cell cell;
    cell.replayUs = wallUs([&] {
        for (std::uint64_t off = 0; off < trace.size(); off += chunk) {
            const std::uint64_t n =
                std::min<std::uint64_t>(chunk, trace.size() - off);
            engine.replayChunk(&trace[off], n);
        }
    });
    cell.stats = engine.mergedStats();
    return cell;
}

void
addRow(Report &rep, const std::string &label, std::uint64_t chunk,
       bool memo, const Cell &cell, double base_us)
{
    const XlatStats &s = cell.stats;
    rep.row({label, std::to_string(chunk), memo ? "on" : "off",
             std::to_string(s.accesses),
             std::to_string(s.walks), std::to_string(s.l1Hits),
             std::to_string(s.l2Hits), std::to_string(s.exposedCycles),
             Report::num(cell.replayUs, 1),
             Report::num(s.accesses / cell.replayUs, 2),
             Report::num(base_us / cell.replayUs, 2)});
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("micro_xlat_scaling", argc, argv);
    out.note("accesses", kAccesses);
    out.note("workload", "pagerank");
    out.note("scheme", "spot");
    out.note("simd", std::string_view(simd::modeName(simd::enabled())));

    // The fig13 stream: pagerank inside a CA/CA VM, replayed through
    // the SpOT pipeline with the fig13 seeds (workload 7, stream 99).
    VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, 7);
    auto wl = makeWorkload("pagerank", {1.0, 7});
    Process &proc = sys.guest().createProcess("bench");
    wl->setup(proc);

    std::vector<MemAccess> trace(kAccesses);
    {
        Rng rng(99);
        wl->fillAccesses(rng, trace.data(), trace.size());
    }
    const PageTable &pt = proc.pageTable();

    Report rep("micro — replay throughput vs chunk size "
               "(fig13 pagerank stream, SpOT)");
    rep.header({"cell", "chunk", "memo", "accesses", "walks",
                "l1_hits", "l2_hits", "exposed_cycles",
                "replay.wall_us", "maccs_s.wall_us",
                "speedup.wall_us"});

    // Chunk sweep: identical counters by construction. Speedups are
    // relative to the default cell (chunk 4096).
    const std::uint64_t kChunks[] = {1024, 4096, 16384};
    std::vector<Cell> sweep;
    for (std::uint64_t chunk : kChunks)
        sweep.push_back(runCell(trace, pt, sys.vm(), chunk, true));
    const double base_us = sweep[1].replayUs;
    for (std::size_t i = 0; i < sweep.size(); ++i)
        addRow(rep, "chunk_sweep", kChunks[i], true, sweep[i], base_us);
    // Memo off: simulated counters must not move.
    {
        const Cell cell = runCell(trace, pt, sys.vm(), 4096, false);
        addRow(rep, "memo_off", 4096, false, cell, base_us);
    }
    // Engine A/B at the default cell. Reference is the historical
    // per-access scalar loop (the denominator of the SoA/SIMD speedup
    // gate, scripts/xlat_ratio_gate.py); soa_scalar is the batched
    // engine with the probe kernels forced scalar, isolating the SIMD
    // share of the win. Simulated counters must not move across the
    // three engines — only the wall_us columns may.
    {
        const Cell ref = runCell(trace, pt, sys.vm(), 4096, true,
                                 XlatEngine::Reference);
        addRow(rep, "engine_ref", 4096, true, ref, base_us);
        const Cell scalar = runCell(trace, pt, sys.vm(), 4096, true,
                                    XlatEngine::Batched, true);
        addRow(rep, "soa_scalar", 4096, true, scalar, base_us);
        out.note("xlat.speedup_vs_ref.wall_us",
                 ref.replayUs / base_us);
    }
    out.add(rep);
    rep.print();

    out.write();
    return 0;
}
