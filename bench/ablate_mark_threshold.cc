/**
 * @file
 * Ablation: the OS thrash-filter threshold — the contiguous-run size
 * (in base pages) above which CA paging sets the PTE contiguity bits
 * that allow SpOT prediction-table fills (§IV-C; the paper uses 32).
 * Too low, and offsets of small scattered mappings thrash the table;
 * too high, and legitimate mappings never become predictable. SVM
 * (scattered small VMAs + large regions) exposes both failure modes.
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

struct Outcome
{
    double overhead;
    double correct;
    double nopred;
};

Outcome
runWith(std::uint64_t threshold_pages, bool gate_enabled)
{
    KernelConfig hostCfg = kernelConfigFor(PolicyKind::Ca);
    CaPagingConfig ca;
    ca.markThresholdPages = threshold_pages;
    Kernel host(hostCfg, std::make_unique<CaPagingPolicy>(ca));
    VmConfig vcfg = ScaledDefaults::vm();
    VirtualMachine vm(host, std::make_unique<CaPagingPolicy>(ca), vcfg);

    auto wl = makeWorkload("svm", {1.0, 7});
    Process &proc = vm.guest().createProcess("svm");
    wl->setup(proc);

    XlatConfig cfg;
    cfg.tlb = ScaledDefaults::tlb();
    cfg.walker = ScaledDefaults::walker();
    cfg.scheme = XlatScheme::Spot;
    cfg.spot = ScaledDefaults::spot();
    cfg.spot.requireContigBits = gate_enabled;
    TranslationSim sim(cfg, proc.pageTable(), vm);
    AccessStream stream(*wl, 1000000, 99);
    const MemAccess *chunk = nullptr;
    while (std::size_t n = stream.next(chunk))
        sim.accessChunk(chunk, n);

    const auto &s = sim.stats();
    const double walks = std::max<double>(s.walks, 1);
    return Outcome{overheadOf(s, ScaledDefaults::perf()).overhead,
                   s.spotCorrect / walks, s.spotNoPrediction / walks};
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("ablate_mark_threshold", argc, argv);

    // Cells 0..3 gate at each threshold; cell 4 disables the gate.
    const std::vector<std::uint64_t> thresholds{4, 32, 512, 8192};
    const std::vector<Outcome> cells = runCells<Outcome>(
        thresholds.size() + 1, [&](std::size_t i) {
            return i < thresholds.size() ? runWith(thresholds[i], true)
                                         : runWith(32, false);
        });

    Report rep("Ablation — contiguity-bit marking threshold "
               "(SpOT on svm, virtualized)");
    rep.header({"threshold (pages)", "overhead", "correct", "no-pred"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Outcome &o = cells[i];
        std::string label = "gate disabled";
        if (i < thresholds.size()) {
            label = std::to_string(thresholds[i]);
            if (thresholds[i] == 32)
                label += " [paper]";
        }
        rep.row({label, Report::pct(o.overhead, 2),
                 Report::pct(o.correct), Report::pct(o.nopred)});
    }
    out.add(rep);
    rep.print();

    std::printf("\nexpected: thresholds above the scattered-VMA size "
                "keep their offsets out of the table (mispredictions "
                "become no-predictions); thresholds below the paper's "
                "32 admit every offset, like disabling the gate\n");
    out.write();
    return 0;
}
