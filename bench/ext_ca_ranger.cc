/**
 * @file
 * Extension experiment: CA paging + ranger combination (paper §VI-C:
 * "mutually assisted ... a good strategy to shield contiguity
 * against external fragmentation"). Under heavy hog pressure CA's
 * allocation-time placement is capped by the largest free holes;
 * the combined policy lets a need-gated ranger daemon repair exactly
 * those VMAs, while paying no migration cost when CA alone suffices.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"
#include "policies/ca_ranger.hh"

using namespace contig;

namespace
{

struct Outcome
{
    double cov32 = 0.0;
    std::uint64_t migratedPages = 0;
};

Outcome
runOne(const char *which, double pressure)
{
    KernelConfig cfg = kernelConfigFor(PolicyKind::Ca);
    std::unique_ptr<AllocationPolicy> pol;
    if (std::string(which) == "ca")
        pol = std::make_unique<CaPagingPolicy>();
    else if (std::string(which) == "ranger") {
        cfg = kernelConfigFor(PolicyKind::Ranger);
        pol = std::make_unique<RangerPolicy>();
    } else {
        pol = std::make_unique<CaRangerPolicy>();
    }
    Kernel k(cfg, std::move(pol));
    Rng rng(13);
    if (pressure > 0)
        hogMemory(k, pressure, rng);

    auto wl = makeWorkload("xsbench", {1.0, 7});
    Process &p = k.createProcess("xs");
    wl->setup(p);
    // Steady phase: daemons run.
    for (int epoch = 0; epoch < 48; ++epoch)
        k.policy().onTick(k);

    Outcome out;
    out.cov32 = coverageTopK(extractSegs(p.pageTable()), 32);
    out.migratedPages = k.counters().get("migrate.pages");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("ext_ca_ranger", argc, argv);

    Report rep("Extension — CA paging + ranger combination "
               "(xsbench, final cov32 / pages migrated)");
    rep.header({"pressure", "CA alone", "ranger alone", "CA+ranger",
                "CA+ranger migrations", "ranger migrations"});
    // Cell i runs policy i % 3 under pressure i / 3.
    const std::vector<double> pressures{0.0, 0.25, 0.5};
    const char *const policies[] = {"ca", "ranger", "combo"};
    const std::vector<Outcome> cells = runCells<Outcome>(
        3 * pressures.size(), [&](std::size_t i) {
            return runOne(policies[i % 3], pressures[i / 3]);
        });
    for (std::size_t p = 0; p < pressures.size(); ++p) {
        const double pressure = pressures[p];
        const Outcome &ca = cells[3 * p];
        const Outcome &rg = cells[3 * p + 1];
        const Outcome &combo = cells[3 * p + 2];
        char label[16];
        std::snprintf(label, sizeof(label), "hog-%.0f%%",
                      pressure * 100);
        rep.row({label, Report::pct(ca.cov32), Report::pct(rg.cov32),
                 Report::pct(combo.cov32),
                 std::to_string(combo.migratedPages),
                 std::to_string(rg.migratedPages)});
    }
    out.add(rep);
    rep.print();

    std::printf("\nexpected: without pressure the combo equals CA and "
                "migrates nothing (ranger alone migrates everything); "
                "under pressure the need-gated daemon matches or beats "
                "both parents' coverage\n");
    out.write();
    return 0;
}
