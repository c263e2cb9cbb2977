/**
 * @file
 * Reproduces Fig. 9: the distribution of free-block sizes after the
 * benchmark suite runs to completion, under default paging vs CA
 * paging. CA's contiguous allocation (and contiguous, long-lived
 * page-cache placement) leaves free memory in far larger unaligned
 * blocks — it delays fragmentation as the machine ages.
 */

#include <array>
#include <cstdio>

#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"
#include "obs/observatory.hh"

using namespace contig;

namespace
{

/** Size classes in pages (log2): >=4MiB, >=16MiB, >=64MiB, >=256MiB. */
constexpr std::array<unsigned, 4> kBuckets{10, 12, 14, 16};

using Distribution = std::array<double, kBuckets.size()>;

/** Fraction of free pages living in blocks of each size class. */
Distribution
freeDistribution(PolicyKind kind)
{
    NativeSystem sys(kind, 7);
    // Run the whole suite back to back on one machine.
    for (const auto &name : paperWorkloads()) {
        if (name == "bt")
            continue; // keep peak usage within one machine for both
        auto wl = makeWorkload(name, {1.0, 7});
        sys.run(*wl, 1u << 30); // no sampling needed
        sys.finish(*wl);
    }

    // Derive the rows from one observatory capture — the same
    // per-zone free-block histograms `--timeline` streams.
    obs::SamplerConfig scfg;
    scfg.captureFreeHist = true;
    scfg.domain = "fig09:" + policyName(kind);
    obs::StateSampler sampler(scfg);
    sampler.attachKernel(sys.kernel());
    const obs::Snapshot &snap = sampler.sampleNow();

    Log2Histogram hist;
    for (const obs::ZoneSnap &z : snap.zones)
        hist.mergeFrom(z.freeHist);
    Distribution out;
    const double total = std::max<double>(hist.totalWeight(), 1);
    // Cumulative weight at or above each bucket boundary.
    for (std::size_t k = 0; k < kBuckets.size(); ++k) {
        std::uint64_t acc = 0;
        for (unsigned i = kBuckets[k]; i < 64; ++i)
            acc += hist.bucket(i);
        out[k] = acc / total;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("fig09_free_blocks", argc, argv);

    const std::vector<std::string> labels{">=4MiB", ">=16MiB", ">=64MiB",
                                          ">=256MiB"};
    const std::vector<Distribution> cells =
        runCells<Distribution>(2, [](std::size_t i) {
            return freeDistribution(i == 0 ? PolicyKind::Thp
                                           : PolicyKind::Ca);
        });
    const Distribution &thp = cells[0];
    const Distribution &ca = cells[1];

    Report rep("Fig. 9 — free memory in blocks of at least each size, "
               "after the suite completes");
    rep.header({"block size", "default(THP)", "CA"});
    for (std::size_t i = 0; i < kBuckets.size(); ++i)
        rep.row({labels[i], Report::pct(thp[i]), Report::pct(ca[i])});
    out.add(rep);
    rep.print();

    std::printf("\npaper: with CA a significantly larger share of free "
                "memory remains in very large (>1 GiB at full scale) "
                "blocks\n");
    out.write();
    return 0;
}
