/**
 * @file
 * Reproduces Fig. 7: contiguity performance without memory pressure,
 * native execution. For each workload and each allocation technique
 * (default THP, Ingens, CA paging, eager paging, translation ranger,
 * ideal paging) reports the time-averaged coverage of the 32 and 128
 * largest contiguous mappings and the number of mappings covering
 * 99 % of the footprint.
 * Expected shape: THP/Ingens need thousands of mappings; CA ~ eager ~
 * ideal (tens); ranger between; CA covers ~99 % with ~27 mappings on
 * average.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"

using namespace contig;

namespace
{

const std::vector<PolicyKind> kPolicies{
    PolicyKind::Thp,   PolicyKind::Ingens, PolicyKind::Ca,
    PolicyKind::Eager, PolicyKind::Ranger, PolicyKind::Ideal};

/** One workload's time-averaged coverage under one policy. */
struct Coverage
{
    double cov32 = 0.0;
    double cov128 = 0.0;
    std::uint64_t maps99 = 0;
};

Coverage
runCell(const std::string &name, PolicyKind kind)
{
    NativeSystem sys(kind, 7);
    auto wl = makeWorkload(name, {1.0, 7});
    auto r = sys.run(*wl);
    const Coverage out{r.avg.cov32, r.avg.cov128, r.avg.mappingsFor99};
    sys.finish(*wl);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("fig07_native_contiguity", argc, argv);

    // Cell i runs workload i / |policies| under policy i % |policies|.
    const std::vector<std::string> &names = paperWorkloads();
    const std::size_t np = kPolicies.size();
    const std::vector<Coverage> cov = runCells<Coverage>(
        names.size() * np, [&](std::size_t i) {
            return runCell(names[i / np], kPolicies[i % np]);
        });

    Report rep("Fig. 7 — native contiguity, no memory pressure "
               "(time-averaged)");
    rep.header({"workload", "policy", "cov32", "cov128", "maps-for-99%"});

    std::map<PolicyKind, std::vector<double>> g32, g128, g99;
    for (std::size_t i = 0; i < cov.size(); ++i) {
        const PolicyKind kind = kPolicies[i % np];
        const Coverage &c = cov[i];
        rep.row({names[i / np], policyName(kind), Report::pct(c.cov32),
                 Report::pct(c.cov128), std::to_string(c.maps99)});
        g32[kind].push_back(c.cov32);
        g128[kind].push_back(c.cov128);
        g99[kind].push_back(
            static_cast<double>(std::max<std::uint64_t>(c.maps99, 1)));
    }
    for (PolicyKind kind : kPolicies) {
        rep.row({"geomean", policyName(kind),
                 Report::pct(geomean(g32[kind])),
                 Report::pct(geomean(g128[kind])),
                 Report::num(geomean(g99[kind]), 1)});
    }
    out.add(rep);
    rep.print();

    std::printf("\npaper: CA ~ eager ~ ideal with tens of mappings for "
                "99%%; THP/Ingens need thousands; ranger in between; "
                "CA dips only for BT (NUMA spill)\n");
    out.write();
    return 0;
}
