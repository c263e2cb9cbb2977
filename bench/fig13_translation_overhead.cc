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

#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/report.hh"

using namespace contig;

namespace
{

constexpr std::uint64_t kAccesses = ScaledDefaults::kAccessesPerRun;

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
std::vector<VirtResult>
virtCaOverheads(std::uint64_t seed)
{
    VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, seed);
    std::vector<VirtResult> out;
    for (const auto &name : paperWorkloads()) {
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
        out.push_back(res);
        wl->teardown();
        sys.guest().exitProcess(proc);
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
    std::vector<VirtResult> ca_all = virtCaOverheads(seed);

    std::vector<double> thp_n, thp_v, spot_v, rmm_v, ds_v;
    for (std::size_t i = 0; i < paperWorkloads().size(); ++i) {
        const auto &name = paperWorkloads()[i];
        double n4k = nativeOverhead(name, PolicyKind::Base4k, seed);
        double nthp = nativeOverhead(name, PolicyKind::Thp, seed);
        double v4k = virtBaseOverhead(name, PolicyKind::Base4k, seed);
        double vthp = virtBaseOverhead(name, PolicyKind::Thp, seed);
        const VirtResult &ca = ca_all[i];

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
