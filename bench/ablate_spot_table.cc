/**
 * @file
 * Ablation: SpOT prediction-table geometry and the confidence
 * threshold. Sweeps table size (entries) and the speculate-above
 * confidence level on the consecutive-VM workload suite, reporting
 * the exposed translation overhead. The paper's 32-entry 4-way table
 * with a 2-bit counter sits at the knee: bigger tables buy little
 * because a handful of PCs cause most misses (§IV-C).
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"
#include "workloads/access_stream.hh"

using namespace contig;

namespace
{

struct Variant
{
    const char *label;
    unsigned sets;
    unsigned ways;
    std::uint8_t threshold;
};

const Variant kVariants[] = {
    {"4e  (1x4), thr>1", 1, 4, 1},
    {"8e  (2x4), thr>1", 2, 4, 1},
    {"32e (8x4), thr>1 [paper]", 8, 4, 1},
    {"128e (32x4), thr>1", 32, 4, 1},
    {"32e (8x4), thr>0 (eager spec)", 8, 4, 0},
    {"32e (8x4), thr>2 (cautious)", 8, 4, 2},
};

double
overheadFor(const Variant &v)
{
    VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, 7);
    double sum = 0;
    for (const auto &name : paperWorkloads()) {
        auto wl = makeWorkload(name, {1.0, 7});
        Process &proc = sys.guest().createProcess(name);
        wl->setup(proc);

        XlatConfig cfg;
        cfg.tlb = ScaledDefaults::tlb();
        cfg.walker = ScaledDefaults::walker();
        cfg.scheme = XlatScheme::Spot;
        cfg.spot = ScaledDefaults::spot();
        cfg.spot.sets = v.sets;
        cfg.spot.ways = v.ways;
        cfg.spot.confidenceThreshold = v.threshold;
        TranslationSim sim(cfg, proc.pageTable(), sys.vm());
        AccessStream stream(*wl, 500000, 99);
        const MemAccess *chunk = nullptr;
        while (std::size_t n = stream.next(chunk))
            sim.accessChunk(chunk, n);
        sum += overheadOf(sim.stats(), ScaledDefaults::perf()).overhead;

        wl->teardown();
        sys.guest().exitProcess(proc);
    }
    return sum / paperWorkloads().size();
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("ablate_spot_table", argc, argv);

    Report rep("Ablation — SpOT table geometry and confidence "
               "threshold (mean exposed overhead, suite)");
    rep.header({"variant", "mean overhead"});
    const std::size_t n = std::size(kVariants);
    const std::vector<double> overhead = runCells<double>(
        n, [](std::size_t i) { return overheadFor(kVariants[i]); });
    for (std::size_t i = 0; i < n; ++i)
        rep.row({kVariants[i].label, Report::pct(overhead[i], 2)});
    out.add(rep);
    rep.print();

    std::printf("\nexpected: a knee at tens of entries (few PCs cause "
                "most misses); thr>0 speculates before confidence and "
                "pays flushes; thr>2 wastes correct predictions\n");
    out.write();
    return 0;
}
