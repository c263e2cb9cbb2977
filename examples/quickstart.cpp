/**
 * @file
 * Quickstart: the library in ~60 lines.
 *
 * Builds a scaled 2-node machine running CA paging, runs a PageRank-
 * like workload on it, and shows (a) the contiguity CA paging created
 * and (b) how much of the nested-paging translation overhead SpOT
 * hides when the same workload runs inside a VM.
 *
 *   ./examples/quickstart
 *
 * Pass `--json out.json` for the machine-readable result document,
 * whose "metrics" block carries the phase timers (phase.*.wall_us),
 * or `--attrib` to add the per-event cost attribution.
 */

#include <cstdio>

#include "core/bench_io.hh"
#include "core/experiment.hh"
#include "core/report.hh"

using namespace contig;

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("quickstart", argc, argv);

    // --- 1. Native machine with CA paging --------------------------------
    NativeSystem sys(PolicyKind::Ca);
    WorkloadConfig wcfg;
    wcfg.scale = 0.5; // quick run
    auto wl = makeWorkload("pagerank", wcfg);

    ContigRunResult r = sys.run(*wl);
    std::printf("\nnative CA paging, pagerank (%s footprint):\n",
                Report::bytes(wl->footprintBytes()).c_str());
    std::printf("  contiguous mappings:      %llu\n",
                static_cast<unsigned long long>(r.final.mappings));
    std::printf("  32 largest cover:         %s\n",
                Report::pct(r.final.cov32).c_str());
    std::printf("  mappings for 99%% cover:   %llu\n",
                static_cast<unsigned long long>(r.final.mappingsFor99));
    std::printf("  page faults:              %llu (p99 latency %.1f us)\n",
                static_cast<unsigned long long>(r.faults),
                r.p99FaultLatencyUs);
    sys.finish(*wl);

    // --- 2. The same workload, virtualized, with and without SpOT --------
    VirtSystem vsys(PolicyKind::Ca, PolicyKind::Ca);
    auto vwl = makeWorkload("pagerank", wcfg);
    Process &gproc = vsys.guest().createProcess("pagerank");
    vwl->setup(gproc);

    auto base = runTranslation(*vwl, &vsys.vm(), XlatScheme::Base,
                               500'000);
    auto spot = runTranslation(*vwl, &vsys.vm(), XlatScheme::Spot,
                               500'000);

    std::printf("\nvirtualized (nested paging), pagerank:\n");
    std::printf("  THP+THP walk overhead:    %s of ideal execution\n",
                Report::pct(base.overhead.overhead).c_str());
    std::printf("  with CA paging + SpOT:    %s\n",
                Report::pct(spot.overhead.overhead).c_str());
    std::printf("  SpOT correct predictions: %s of L2-TLB misses\n",
                Report::pct(spot.stats.walks
                                ? static_cast<double>(
                                      spot.stats.spotCorrect) /
                                      spot.stats.walks
                                : 0.0)
                    .c_str());

    out.note("workload", "pagerank");
    out.note("scale", wcfg.scale);
    out.write();
    return 0;
}
