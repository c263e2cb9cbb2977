/**
 * @file
 * Reproduces Fig. 13: execution-time overhead of address translation
 * (data-TLB misses that trigger page walks) across:
 *   native 4K / THP, virtualized 4K+4K / THP+THP,
 *   SpOT (CA paging guest+host), vRMM (CA paging), DS dual mode.
 * Expected shape (paper): virtualized THP+THP ~16.5% avg (2-3x the
 * native THP ~7%); SpOT drops it to ~0.9%, slightly above vRMM
 * (<0.1%), both close to DS (~0).
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

constexpr std::uint64_t kAccesses = ScaledDefaults::kAccessesPerRun;

/** paperWorkloads().size(): the CA cell returns one result each. */
constexpr std::size_t kWorkloads = 5;

/** Per-workload cells: native 4K, native THP, 4K+4K and THP+THP. */
constexpr std::size_t kCellKinds = 4;

double
nativeOverhead(const std::string &name, PolicyKind kind,
               std::uint64_t seed)
{
    NativeSystem sys(kind, seed);
    auto wl = makeWorkload(name, {1.0, seed});
    Process &proc = sys.kernel().createProcess(name);
    wl->setup(proc);
    auto r = runTranslation(*wl, nullptr, XlatScheme::Base, kAccesses);
    return r.overhead.overhead;
}

struct VirtResult
{
    double base = 0.0;
    double spot = 0.0;
    double rmm = 0.0;
    double ds = 0.0;
};

double
virtBaseOverhead(const std::string &name, PolicyKind kind,
                 std::uint64_t seed)
{
    VirtSystem sys(kind, kind, seed);
    auto wl = makeWorkload(name, {1.0, seed});
    Process &proc = sys.guest().createProcess(name);
    wl->setup(proc);
    auto r = runTranslation(*wl, &sys.vm(), XlatScheme::Base, kAccesses);
    return r.overhead.overhead;
}

/**
 * The CA-based schemes run workloads *consecutively inside one VM*,
 * as the paper does (§VI-A: "our applications run consecutively
 * without VM reboots") — the gPA->hPA dimension persists and ages,
 * which is where guest/host mapping mismatches come from.
 */
std::array<VirtResult, kWorkloads>
virtCaOverheads(std::uint64_t seed)
{
    VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, seed);
    std::array<VirtResult, kWorkloads> out;
    for (std::size_t i = 0; i < kWorkloads; ++i) {
        const std::string &name = paperWorkloads()[i];
        auto wl = makeWorkload(name, {1.0, seed});
        Process &proc = sys.guest().createProcess(name);
        wl->setup(proc);
        VirtResult res;
        res.spot = runTranslation(*wl, &sys.vm(), XlatScheme::Spot,
                                  kAccesses)
                       .overhead.overhead;
        res.rmm = runTranslation(*wl, &sys.vm(), XlatScheme::Rmm,
                                 kAccesses)
                      .overhead.overhead;
        res.ds = runTranslation(*wl, &sys.vm(), XlatScheme::Ds,
                                kAccesses)
                     .overhead.overhead;
        out[i] = res;
        wl->teardown();
        sys.guest().exitProcess(proc);
    }
    return out;
}

/**
 * One cell's result. Cell 0 ages the CA/CA VM through every workload
 * (the longest chain, so it starts first); cell 1 + kCellKinds * w + k
 * runs workload w in per-workload column k.
 */
struct CellResult
{
    double overhead = 0.0;
    std::array<VirtResult, kWorkloads> ca{};
};

CellResult
runCell(std::size_t cell, std::uint64_t seed)
{
    CellResult out;
    if (cell == 0) {
        out.ca = virtCaOverheads(seed);
        return out;
    }
    const std::string &name = paperWorkloads()[(cell - 1) / kCellKinds];
    switch ((cell - 1) % kCellKinds) {
      case 0:
        out.overhead = nativeOverhead(name, PolicyKind::Base4k, seed);
        break;
      case 1:
        out.overhead = nativeOverhead(name, PolicyKind::Thp, seed);
        break;
      case 2:
        out.overhead = virtBaseOverhead(name, PolicyKind::Base4k, seed);
        break;
      default:
        out.overhead = virtBaseOverhead(name, PolicyKind::Thp, seed);
        break;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("fig13_translation_overhead", argc, argv);

    Report rep("Fig. 13 — translation overhead vs ideal execution "
               "(lower is better)");
    rep.header({"workload", "4K", "THP", "4K+4K", "THP+THP",
                "SpOT(CA)", "vRMM(CA)", "DS"});

    const std::uint64_t seed = 7;
    contig_assert(paperWorkloads().size() == kWorkloads,
                  "fig13 sizes its CA cell for %zu workloads", kWorkloads);
    const std::vector<CellResult> cells = runCells<CellResult>(
        1 + kWorkloads * kCellKinds,
        [seed](std::size_t i) { return runCell(i, seed); });

    std::vector<double> thp_n, thp_v, spot_v, rmm_v, ds_v;
    for (std::size_t i = 0; i < kWorkloads; ++i) {
        const auto &name = paperWorkloads()[i];
        const CellResult *c = &cells[1 + i * kCellKinds];
        double n4k = c[0].overhead;
        double nthp = c[1].overhead;
        double v4k = c[2].overhead;
        double vthp = c[3].overhead;
        const VirtResult &ca = cells[0].ca[i];

        thp_n.push_back(nthp);
        thp_v.push_back(vthp);
        spot_v.push_back(ca.spot);
        rmm_v.push_back(ca.rmm);
        ds_v.push_back(ca.ds);

        rep.row({name, Report::pct(n4k), Report::pct(nthp),
                 Report::pct(v4k), Report::pct(vthp),
                 Report::pct(ca.spot, 2), Report::pct(ca.rmm, 2),
                 Report::pct(ca.ds, 2)});
    }

    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return s / v.size();
    };
    rep.row({"mean", "", Report::pct(mean(thp_n)), "",
             Report::pct(mean(thp_v)), Report::pct(mean(spot_v), 2),
             Report::pct(mean(rmm_v), 2), Report::pct(mean(ds_v), 2)});
    out.add(rep);
    rep.print();

    std::printf("\npaper: THP ~7%% native, ~16.5%% virtualized; "
                "SpOT ~0.9%%, vRMM <0.1%%, DS ~0%%\n");
    out.write();
    return 0;
}
