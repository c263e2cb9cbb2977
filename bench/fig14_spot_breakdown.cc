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
#include "core/report.hh"

using namespace contig;

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("fig14_spot_breakdown", argc, argv);

    Report rep("Fig. 14 — SpOT outcome breakdown per L2-TLB miss");
    rep.header({"workload", "correct", "mispredicted", "no-prediction",
                "walks"});

    VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, 7);
    for (const auto &name : paperWorkloads()) {
        auto wl = makeWorkload(name, {1.0, 7});
        Process &proc = sys.guest().createProcess(name);
        wl->setup(proc);
        auto r = runTranslation(*wl, &sys.vm(), XlatScheme::Spot,
                                ScaledDefaults::kAccessesPerRun);
        const double w = r.stats.walks ? r.stats.walks : 1;
        rep.row({name,
                 Report::pct(r.stats.spotCorrect / w),
                 Report::pct(r.stats.spotMispredicted / w),
                 Report::pct(r.stats.spotNoPrediction / w),
                 std::to_string(r.stats.walks)});
        wl->teardown();
        sys.guest().exitProcess(proc);
    }
    out.add(rep);
    rep.print();

    std::printf("\npaper: correct >99%% (PageRank), mispredictions "
                "never more than ~4%% (hashjoin); svm/bt carry the "
                "no-prediction residual\n");
    out.write();
    return 0;
}
