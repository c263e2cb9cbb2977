/**
 * @file
 * Reproduces Table V: total page faults and 99th-percentile fault
 * latency across the suite for THP, CA paging, and eager paging.
 * Expected shape: THP and CA have the same fault count and nearly the
 * same tail latency (CA's placement is cheap); eager collapses the
 * fault count to a handful of giant pre-allocations whose bulk
 * zeroing pushes the 99th latency up by orders of magnitude.
 *
 * The addendum checks that 64-page spans and one touch() per page
 * agree on fault count and p99 latency; the binary exits 1 if they
 * do not.
 */

#include <chrono>
#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/report.hh"

using namespace contig;

namespace
{

struct Totals
{
    std::uint64_t faults = 0;
    double p99Us = 0.0;
};

/** One span-vs-per-fault arm: 4 KiB demand population. */
struct BatchArm
{
    std::uint64_t faults = 0;
    double p99Us = 0.0;
    double wallUsPerPage = 0.0;
};

/**
 * Populate 4096 pages as 64-page touchRange() spans, or (spans off)
 * with one touch() per page.
 */
BatchArm
runPopulate(PolicyKind kind, bool spans)
{
    constexpr std::uint64_t kPages = 4096;
    constexpr std::uint64_t kSpan = 64;
    KernelConfig cfg = kernelConfigFor(kind);
    cfg.thpEnabled = false; // order-0 runs: the chunked case
    cfg.metricsPrefix = spans ? "t5_batched" : "t5_single";
    Kernel k(cfg, makePolicy(kind));
    Process &p = k.createProcess("bench");
    Vma &vma = p.mmap(kPages * kPageSize);

    const auto t0 = std::chrono::steady_clock::now();
    if (spans) {
        for (std::uint64_t off = 0; off < kPages; off += kSpan)
            p.touchRange(vma.start() + off * kPageSize, kSpan * kPageSize);
    } else {
        for (std::uint64_t off = 0; off < kPages; ++off)
            p.touch(vma.start() + off * kPageSize);
    }
    const auto t1 = std::chrono::steady_clock::now();

    BatchArm arm;
    arm.faults = k.faultStats().faults;
    arm.p99Us = k.faultStats().latencyUs.quantile(0.99);
    arm.wallUsPerPage =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        kPages;
    return arm;
}

Totals
runSuite(PolicyKind kind)
{
    NativeSystem sys(kind, 7);
    for (const auto &name : paperWorkloads()) {
        if (name == "bt")
            continue; // keep peak footprint equal across policies
        auto wl = makeWorkload(name, {1.0, 7});
        sys.run(*wl, 1u << 30);
        sys.finish(*wl);
    }
    Totals t;
    t.faults = sys.kernel().faultStats().faults;
    t.p99Us = sys.kernel().faultStats().latencyUs.quantile(0.99);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("table5_fault_latency", argc, argv);

    auto thp = runSuite(PolicyKind::Thp);
    auto ca = runSuite(PolicyKind::Ca);
    auto eager = runSuite(PolicyKind::Eager);

    Report rep("Table V — total page faults and 99th-%ile latency "
               "(suite aggregate)");
    rep.header({"metric", "THP", "CA paging", "eager paging"});
    rep.row({"total faults", std::to_string(thp.faults),
             std::to_string(ca.faults), std::to_string(eager.faults)});
    rep.row({"99th latency (us)", Report::num(thp.p99Us, 1),
             Report::num(ca.p99Us, 1), Report::num(eager.p99Us, 1)});
    out.add(rep);
    rep.print();

    std::printf("\npaper: THP 515us / CA 526us / eager 80372us; "
                "eager's fault count drops to tens\n\n");

    // FaultEngine addendum: 64-page spans must not move any simulated
    // number (faults, latency percentiles) against one touch() per
    // page — only the host-side cost per fault drops.
    Report bat("Table V addendum — batched vs per-fault resolution "
               "(4 KiB populate, 64-page spans)");
    bat.header({"policy", "faults", "p99 (us)", "per-fault wall us/pg",
                "batched wall us/pg", "wall speedup"});
    bool agree = true;
    for (PolicyKind kind : {PolicyKind::Thp, PolicyKind::Ca}) {
        BatchArm single = runPopulate(kind, false);
        BatchArm batched = runPopulate(kind, true);
        if (single.faults != batched.faults ||
            single.p99Us != batched.p99Us) {
            std::printf("ERROR: batched arm diverged for %s\n",
                        policyName(kind).c_str());
            agree = false;
        }
        bat.row({policyName(kind), std::to_string(single.faults),
                 Report::num(single.p99Us, 1),
                 Report::num(single.wallUsPerPage, 3),
                 Report::num(batched.wallUsPerPage, 3),
                 Report::num(single.wallUsPerPage /
                                 batched.wallUsPerPage,
                             2)});
    }
    out.add(bat);
    bat.print();

    out.write();
    return agree ? 0 : 1;
}
