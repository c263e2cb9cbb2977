/**
 * @file
 * Reproduces Fig. 12: contiguity of the full 2-D (gVA -> hPA)
 * mappings in virtualized execution, with the policy applied in
 * guest and host independently and workloads running consecutively
 * in one VM (no reboots) — so guest/host mapping mismatches
 * accumulate as the paper describes.
 * Expected shape: CA cuts mappings-for-99% by roughly an order of
 * magnitude vs THP; 32-mapping coverage slightly below native CA.
 */

#include <array>
#include <cstdio>

#include "base/logging.hh"
#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"

using namespace contig;

namespace
{

/** paperWorkloads().size(): a cell returns one result each. */
constexpr std::size_t kWorkloads = 5;

/** Time-averaged coverage of each workload, run in turn in one VM. */
std::array<CoverageMetrics, kWorkloads>
measure(PolicyKind kind)
{
    VirtSystem sys(kind, kind, 7);
    std::array<CoverageMetrics, kWorkloads> rows;
    for (std::size_t i = 0; i < kWorkloads; ++i) {
        auto wl = makeWorkload(paperWorkloads()[i], {1.0, 7});
        auto r = sys.run(*wl);
        rows[i] = r.avg;
        sys.finish(*wl);
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("fig12_virt_contiguity", argc, argv);

    const std::vector<PolicyKind> kinds{PolicyKind::Thp, PolicyKind::Ca};
    Report rep("Fig. 12 — virtualized 2-D contiguity, consecutive "
               "runs in one VM (time-averaged)");
    rep.header({"workload", "policy", "cov32", "cov128",
                "maps-for-99%"});

    contig_assert(paperWorkloads().size() == kWorkloads,
                  "fig12 sizes its cells for %zu workloads", kWorkloads);
    const auto cells = runCells<std::array<CoverageMetrics, kWorkloads>>(
        kinds.size(), [&](std::size_t i) { return measure(kinds[i]); });
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const PolicyKind kind = kinds[k];
        std::vector<double> c32, c128, m99;
        for (std::size_t i = 0; i < kWorkloads; ++i) {
            const CoverageMetrics &m = cells[k][i];
            rep.row({paperWorkloads()[i], policyName(kind),
                     Report::pct(m.cov32), Report::pct(m.cov128),
                     std::to_string(m.mappingsFor99)});
            c32.push_back(std::max(m.cov32, 1e-6));
            c128.push_back(std::max(m.cov128, 1e-6));
            m99.push_back(static_cast<double>(
                std::max<std::uint64_t>(m.mappingsFor99, 1)));
        }
        rep.row({"geomean", policyName(kind),
                 Report::pct(geomean(c32)), Report::pct(geomean(c128)),
                 Report::num(geomean(m99), 1)});
    }
    out.add(rep);
    rep.print();

    std::printf("\npaper: CA ~86%%/~96%% coverage with 32/128 "
                "mappings, ~90 mappings for 99%% (vs thousands "
                "for THP)\n");
    out.write();
    return 0;
}
