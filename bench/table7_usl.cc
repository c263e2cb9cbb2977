/**
 * @file
 * Reproduces Table VII: the unsafe-load (USL) estimation comparing
 * SpOT's transient-execution exposure with Spectre-style branch
 * speculation, using the paper's two equations over measured event
 * rates (geometric mean across the workloads).
 * Expected shape: DTLB misses are a small fraction of branches
 * (~0.25% vs ~5.9% of instructions), but SpOT's speculation window
 * (a full nested walk) is longer than branch resolution, so SpOT
 * USLs land at a few percent of instructions vs Spectre's ~16%.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"

using namespace contig;

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("table7_usl", argc, argv);

    // The parent ages the VM through the workloads in order; each
    // workload's replay only reads the VM, so it runs as a leg forked
    // right after the workload's setup.
    const std::vector<std::string> &names = paperWorkloads();
    VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, 7);
    CellPool<UslEstimate> pool(names.size());
    for (const auto &name : names) {
        auto wl = makeWorkload(name, {1.0, 7});
        Process &proc = sys.guest().createProcess(name);
        wl->setup(proc);
        pool.spawn([&] {
            auto r = runTranslation(*wl, &sys.vm(), XlatScheme::Spot,
                                    ScaledDefaults::kAccessesPerRun);
            return estimateUsl(r.stats, ScaledDefaults::perf());
        });
        wl->teardown();
        sys.guest().exitProcess(proc);
    }
    std::vector<double> branches, misses, spectre, spot;
    for (const UslEstimate &usl : pool.join()) {
        branches.push_back(usl.branchesPerInstr);
        misses.push_back(std::max(usl.dtlbMissesPerInstr, 1e-9));
        spectre.push_back(usl.spectreUslPerInstr);
        spot.push_back(std::max(usl.spotUslPerInstr, 1e-9));
    }

    Report rep("Table VII — unsafe-load estimation "
               "(geomean, per instruction)");
    rep.header({"branches/instr", "DTLB misses/instr",
                "Spectre USL/instr", "SpOT USL/instr"});
    rep.row({Report::pct(geomean(branches)),
             Report::pct(geomean(misses), 3),
             Report::pct(geomean(spectre)),
             Report::pct(geomean(spot), 2)});
    out.add(rep);
    rep.print();

    std::printf("\npaper: 5.87%% branches, 0.25%% DTLB misses, "
                "16.5%% Spectre USL, 2.9%% SpOT USL -> InvisiSpec-"
                "style mitigation costs <2%% for SpOT\n");
    out.write();
    return 0;
}
