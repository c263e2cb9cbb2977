/**
 * @file
 * Reproduces Fig. 14: the fraction of L2-TLB misses for which SpOT
 * made a correct prediction, a misprediction, or no prediction, with
 * CA paging active in both guest and host and the workloads running
 * consecutively in one VM.
 * Expected shape: correct predictions >99% for PageRank-like regular
 * workloads, mispredictions bounded by a few percent (hashjoin/svm),
 * no-predictions concentrated in svm (irregular scattered VMAs) and
 * bt (fragmented multi-array mappings).
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
    BenchOutput out("fig14_spot_breakdown", argc, argv);

    // The parent ages the VM through the workloads in order; each
    // workload's replay only reads the VM, so it runs as a leg forked
    // right after the workload's setup.
    const std::vector<std::string> &names = paperWorkloads();
    VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, 7);
    CellPool<XlatStats> pool(names.size());
    for (const auto &name : names) {
        auto wl = makeWorkload(name, {1.0, 7});
        Process &proc = sys.guest().createProcess(name);
        wl->setup(proc);
        pool.spawn([&] {
            return runTranslation(*wl, &sys.vm(), XlatScheme::Spot,
                                  ScaledDefaults::kAccessesPerRun)
                .stats;
        });
        wl->teardown();
        sys.guest().exitProcess(proc);
    }
    const std::vector<XlatStats> stats = pool.join();

    Report rep("Fig. 14 — SpOT outcome breakdown per L2-TLB miss");
    rep.header({"workload", "correct", "mispredicted", "no-prediction",
                "walks"});
    for (std::size_t i = 0; i < names.size(); ++i) {
        const XlatStats &s = stats[i];
        const double w = s.walks ? s.walks : 1;
        rep.row({names[i], Report::pct(s.spotCorrect / w),
                 Report::pct(s.spotMispredicted / w),
                 Report::pct(s.spotNoPrediction / w),
                 std::to_string(s.walks)});
    }
    out.add(rep);
    rep.print();

    std::printf("\npaper: correct >99%% (PageRank), mispredictions "
                "never more than ~4%% (hashjoin); svm/bt carry the "
                "no-prediction residual\n");
    out.write();
    return 0;
}
