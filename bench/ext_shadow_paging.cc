/**
 * @file
 * Extension experiment: shadow paging vs nested paging (the paper's
 * related-work §VII notes CA paging and SpOT are "agnostic to the
 * virtualization technology and directly applicable to shadow and
 * hybrid paging"). The hypervisor traps guest page-table updates and
 * maintains a flat gVA->hPA shadow table:
 *  - TLB misses walk ONE table (native-depth cost, no 2-D blow-up),
 *  - but every guest PTE update costs a VM exit.
 * The classic trade-off (cf. Agile Paging): fault-heavy phases favour
 * nested paging, walk-heavy steady state favours shadow paging — and
 * SpOT narrows the gap from the nested side.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"
#include "policies/ca_paging.hh"
#include "workloads/access_stream.hh"

using namespace contig;

namespace
{

/** Modelled cost of one shadow-sync VM exit. */
constexpr Cycles kVmExitCycles = 1200;

struct Outcome
{
    double walkOverhead = 0.0; //!< steady-state translation overhead
    double avgWalk = 0.0;
    std::uint64_t exits = 0;   //!< shadow-sync VM exits during setup
    double setupOverheadCycles = 0.0;
};

Outcome
run(bool shadow, XlatScheme scheme)
{
    KernelConfig hostCfg = kernelConfigFor(PolicyKind::Ca);
    Kernel host(hostCfg, std::make_unique<CaPagingPolicy>());
    VirtualMachine vm(host, std::make_unique<CaPagingPolicy>(),
                      ScaledDefaults::vm());

    auto wl = makeWorkload("xsbench", {1.0, 7});
    Process &proc = vm.guest().createProcess("xs");
    if (shadow)
        vm.enableShadowPaging(proc);
    wl->setup(proc);

    XlatConfig cfg;
    cfg.tlb = ScaledDefaults::tlb();
    cfg.walker = ScaledDefaults::walker();
    cfg.scheme = scheme;
    cfg.spot = ScaledDefaults::spot();

    std::unique_ptr<TranslationSim> sim;
    if (shadow) {
        // Shadow: the hardware walks the flat gVA->hPA table.
        sim = std::make_unique<TranslationSim>(cfg,
                                               vm.shadowTable(proc));
    } else {
        sim = std::make_unique<TranslationSim>(cfg, proc.pageTable(),
                                               vm);
    }
    AccessStream stream(*wl, 1'000'000, 99);
    const MemAccess *chunk = nullptr;
    while (std::size_t n = stream.next(chunk))
        sim->accessChunk(chunk, n);

    Outcome out;
    out.walkOverhead =
        overheadOf(sim->stats(), ScaledDefaults::perf()).overhead;
    out.avgWalk = sim->stats().avgWalkCycles();
    out.exits = vm.shadowExits();
    out.setupOverheadCycles =
        static_cast<double>(out.exits) * kVmExitCycles;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("ext_shadow_paging", argc, argv);

    // Cell i runs shadow paging when i >= 2, with SpOT when i is odd.
    const std::vector<Outcome> cells =
        runCells<Outcome>(4, [](std::size_t i) {
            return run(i >= 2, i % 2 == 1 ? XlatScheme::Spot
                                          : XlatScheme::Base);
        });
    const Outcome &nested = cells[0];
    const Outcome &nested_spot = cells[1];
    const Outcome &shadow = cells[2];
    const Outcome &shadow_spot = cells[3];

    Report rep("Extension — shadow vs nested paging "
               "(xsbench, CA guest+host)");
    rep.header({"mode", "avg walk (cycles)", "walk overhead",
                "setup VM exits"});
    rep.row({"nested", Report::num(nested.avgWalk, 1),
             Report::pct(nested.walkOverhead),
             std::to_string(nested.exits)});
    rep.row({"nested + SpOT", Report::num(nested_spot.avgWalk, 1),
             Report::pct(nested_spot.walkOverhead, 2),
             std::to_string(nested_spot.exits)});
    rep.row({"shadow", Report::num(shadow.avgWalk, 1),
             Report::pct(shadow.walkOverhead),
             std::to_string(shadow.exits)});
    rep.row({"shadow + SpOT", Report::num(shadow_spot.avgWalk, 1),
             Report::pct(shadow_spot.walkOverhead, 2),
             std::to_string(shadow_spot.exits)});
    out.add(rep);
    rep.print();

    std::printf("\nexpected: shadow walks cost native depth (~2-3x "
                "cheaper than nested) but pay ~%u-cycle VM exits per "
                "guest PTE update during the allocation phase; SpOT "
                "hides the walk cost in BOTH modes (it is agnostic to "
                "the virtualization technique, as the paper argues)\n",
                static_cast<unsigned>(kVmExitCycles));
    out.write();
    return 0;
}
