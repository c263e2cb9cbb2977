/**
 * @file
 * Extension experiment: 5-level (LA57) paging. The paper's
 * introduction motivates the work with it: "persistent memory will
 * hugely increase physical memory, requiring 5-level paging, further
 * exacerbating the cost of TLB misses." A nested walk over two
 * 5-level tables costs up to 35 memory references (vs 24 for two
 * 4-level tables: 5 guest nodes x (5+1) + final 5-ref nested walk).
 * SpOT's prediction is depth-agnostic — it hides whatever the walk
 * costs — so its relative benefit *grows* with 5-level tables.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/report.hh"
#include "policies/ca_paging.hh"
#include "workloads/access_stream.hh"

using namespace contig;

namespace
{

struct Outcome
{
    double base = 0.0;
    double spot = 0.0;
    double avgWalk = 0.0;
};

Outcome
runWithLevels(unsigned levels)
{
    KernelConfig hostCfg = kernelConfigFor(PolicyKind::Ca);
    hostCfg.pageTableLevels = levels;
    Kernel host(hostCfg, std::make_unique<CaPagingPolicy>());
    VmConfig vcfg = ScaledDefaults::vm();
    vcfg.guestKernel.pageTableLevels = levels;
    VirtualMachine vm(host, std::make_unique<CaPagingPolicy>(), vcfg);

    auto wl = makeWorkload("xsbench", {1.0, 7});
    Process &proc = vm.guest().createProcess("xs");
    wl->setup(proc);

    Outcome out;
    for (XlatScheme scheme : {XlatScheme::Base, XlatScheme::Spot}) {
        XlatConfig cfg;
        cfg.tlb = ScaledDefaults::tlb();
        cfg.walker = ScaledDefaults::walker();
        cfg.scheme = scheme;
        cfg.spot = ScaledDefaults::spot();
        TranslationSim sim(cfg, proc.pageTable(), vm);
        AccessStream stream(*wl, 1'000'000, 99);
        const MemAccess *chunk = nullptr;
        while (std::size_t n = stream.next(chunk))
            sim.accessChunk(chunk, n);
        const double o =
            overheadOf(sim.stats(), ScaledDefaults::perf()).overhead;
        if (scheme == XlatScheme::Base) {
            out.base = o;
            out.avgWalk = sim.stats().avgWalkCycles();
        } else {
            out.spot = o;
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("ext_5level_paging", argc, argv);

    auto four = runWithLevels(4);
    auto five = runWithLevels(5);

    Report rep("Extension — nested paging with 5-level (LA57) tables "
               "(xsbench, CA guest+host)");
    rep.header({"radix depth", "avg nested walk (cycles)",
                "THP+THP overhead", "with SpOT"});
    rep.row({"4-level (<=24 refs)", Report::num(four.avgWalk, 1),
             Report::pct(four.base), Report::pct(four.spot, 2)});
    rep.row({"5-level (<=35 refs)", Report::num(five.avgWalk, 1),
             Report::pct(five.base), Report::pct(five.spot, 2)});
    out.add(rep);
    rep.print();

    std::printf("\nexpected: the deeper radix makes every nested walk "
                "costlier, inflating the base overhead, while SpOT's "
                "hidden-walk overhead stays flat — the paper's "
                "forward-looking motivation quantified\n");
    out.write();
    return 0;
}
