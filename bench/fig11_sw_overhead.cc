/**
 * @file
 * Reproduces Fig. 11: software runtime overhead of each allocation
 * technique normalized to default THP, with no gains from novel
 * translation hardware counted — i.e. purely the cost of faults,
 * placement decisions, zeroing, migrations and promotions.
 * Expected shape: CA and eager add ~0; ranger costs ~3% on average
 * (migrations + shootdowns); a TLB-friendly control is unaffected by
 * CA paging.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"

using namespace contig;

namespace
{

/**
 * The runtime model: application work is proportional to the touched
 * footprint (a fixed number of cycles per touched page of work),
 * plus the policy's software cycles.
 */
double
runtimeCycles(const ContigRunResult &r)
{
    constexpr double kWorkCyclesPerPage = 120000.0;
    return r.touchedPages * kWorkCyclesPerPage + r.swCycles;
}

double
thpRuntime(const std::string &name)
{
    NativeSystem sys(PolicyKind::Thp, 7);
    auto wl = makeWorkload(name, {1.0, 7});
    double thp = runtimeCycles(sys.run(*wl));
    sys.finish(*wl);
    return thp;
}

double
policyRuntime(const std::string &name, PolicyKind kind)
{
    NativeSystem sys(kind, 7);
    auto wl = makeWorkload(name, {1.0, 7});
    auto r = sys.run(*wl);
    // Ranger/Ingens keep working after allocation: run the daemon for
    // a steady-state period so migration costs are accounted.
    for (int epoch = 0; epoch < 16; ++epoch)
        sys.kernel().policy().onTick(sys.kernel());
    r.swCycles +=
        static_cast<double>(
            sys.kernel().counters().get("migrate.cycles") +
            sys.kernel().counters().get("promote.cycles"));
    double mine = runtimeCycles(r);
    sys.finish(*wl);
    return mine;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("fig11_sw_overhead", argc, argv);

    const std::vector<PolicyKind> kinds{PolicyKind::Ca, PolicyKind::Eager,
                                        PolicyKind::Ranger};
    std::vector<std::string> names = paperWorkloads();
    names.push_back("tlbfriendly");

    // One machine per cell. Pair p (workload p / |kinds|, policy
    // p % |kinds|) is cell 2p, the policy's machine, then cell 2p + 1,
    // the THP baseline it is normalized to: the order in which a
    // serial run of the pair's two machines absorbs their metrics.
    const std::size_t nk = kinds.size();
    const std::vector<double> cycles = runCells<double>(
        2 * names.size() * nk, [&](std::size_t i) {
            const std::string &name = names[i / 2 / nk];
            return i % 2 == 0 ? policyRuntime(name, kinds[i / 2 % nk])
                              : thpRuntime(name);
        });

    Report rep("Fig. 11 — software runtime normalized to THP "
               "(1.00 = no overhead)");
    rep.header({"workload", "CA", "eager", "ranger"});
    std::map<PolicyKind, std::vector<double>> all;
    for (std::size_t w = 0; w < names.size(); ++w) {
        std::vector<std::string> row{names[w]};
        for (std::size_t k = 0; k < nk; ++k) {
            const std::size_t p = w * nk + k;
            double v = cycles[2 * p] / cycles[2 * p + 1];
            row.push_back(Report::num(v, 3));
            all[kinds[k]].push_back(v);
        }
        rep.row(row);
    }
    std::vector<std::string> g{"geomean"};
    for (PolicyKind kind : kinds)
        g.push_back(Report::num(geomean(all[kind]), 3));
    rep.row(g);
    out.add(rep);
    rep.print();

    std::printf("\npaper: eager and CA add no runtime overhead; "
                "ranger pays ~3%% for migrations\n");
    out.write();
    return 0;
}
