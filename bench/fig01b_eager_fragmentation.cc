/**
 * @file
 * Reproduces Fig. 1b: coverage of the 32 largest mappings when
 * PageRank runs 10 consecutive times on the same machine. Each run
 * re-reads the (persisting) graph file through the page cache and
 * leaves behind a per-run output file — the long-lived allocations
 * that progressively fragment physical memory.
 * Expected shape: eager paging's coverage decays run after run
 * (aligned high-order blocks disappear); CA paging sustains coverage
 * because it packs both anonymous and page-cache memory.
 */

#include <array>
#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"

using namespace contig;

namespace
{

constexpr int kRuns = 10;
constexpr std::uint64_t kChurnIslands = 48; // pinned bursts per run

using Series = std::array<double, kRuns>;

/** cov32 after each of kRuns consecutive runs on one machine. */
Series
runSeries(PolicyKind kind)
{
    NativeSystem sys(kind, 7);
    std::optional<std::uint32_t> graph_file;
    Series coverage{};
    for (int run = 0; run < kRuns; ++run) {
        auto wl = makeWorkload("pagerank", {1.0, 7});
        if (graph_file)
            wl->setInputFile(*graph_file);
        auto r = sys.run(*wl);
        graph_file = wl->inputFileId();
        coverage[run] = r.final.cov32;
        sys.finish(*wl);
        // Between runs the system ages: log/output pages accumulate
        // in the page cache amid allocation entropy.
        systemChurn(sys.kernel(), kChurnIslands, 1000 + run);
    }
    return coverage;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("fig01b_eager_fragmentation", argc, argv);

    const std::vector<Series> series =
        runCells<Series>(2, [](std::size_t i) {
            return runSeries(i == 0 ? PolicyKind::Eager : PolicyKind::Ca);
        });
    const Series &eager = series[0];
    const Series &ca = series[1];

    Report rep("Fig. 1b — 32-largest-mappings coverage across 10 "
               "consecutive PageRank runs");
    rep.header({"run", "eager", "CA"});
    for (int i = 0; i < kRuns; ++i) {
        rep.row({std::to_string(i + 1), Report::pct(eager[i]),
                 Report::pct(ca[i])});
    }
    out.add(rep);
    rep.print();

    std::printf("\npaper: eager coverage drops progressively with "
                "external fragmentation; CA sustains it\n");
    out.write();
    return 0;
}
