/**
 * @file
 * Micro-benchmark: the cost of the allocation fast path itself — the
 * software-overhead claim behind Fig. 11, plus the FaultEngine's
 * batched-vs-per-fault comparison. The batched arm drives 64-page
 * spans through handleRange()/readFile(); the per-fault arm makes one
 * touch() or one one-page readFile() per page. Placements and
 * simulated cycles are identical either way (the golden-equivalence
 * test), so the delta is pure host-side amortization (one VMA lookup,
 * chunked placement, grouped PTE installs). Raw buddy/contiguity-map
 * primitive costs follow in a second table. Every host-timed column
 * has `wall` in its name, so a comparison of two builds that drops
 * the keys containing `wall` keeps only the deterministic ones.
 */

#include <chrono>
#include <cstdio>
#include <functional>

#include "core/bench_io.hh"
#include "core/experiment.hh"
#include "core/report.hh"

using namespace contig;

namespace
{

constexpr std::uint64_t kBatchPages = 64;
constexpr std::uint64_t kTotalPages = 16384;

double
wallUs(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

std::unique_ptr<Kernel>
makeKernel(PolicyKind kind, bool batching)
{
    KernelConfig cfg = kernelConfigFor(kind);
    // 4 KiB faults only: spans chunk order-0 runs (huge faults always
    // resolve through the single-fault path).
    cfg.thpEnabled = false;
    cfg.metricsPrefix = batching ? "micro_batched" : "micro_single";
    return std::make_unique<Kernel>(cfg, makePolicy(kind));
}

/**
 * Touch `total` pages from `start` in kBatchPages spans, or with one
 * touch() per page.
 */
void
touchPages(Process &p, Gva start, std::uint64_t total, bool batching,
           Access access = Access::Write)
{
    if (batching) {
        for (std::uint64_t off = 0; off < total; off += kBatchPages)
            p.touchRange(start + off * kPageSize, kBatchPages * kPageSize,
                         access);
    } else {
        for (std::uint64_t off = 0; off < total; ++off)
            p.touch(start + off * kPageSize, access);
    }
}

/** us/page to demand-populate `total` pages. */
double
anonPopulate(PolicyKind kind, bool batching, std::uint64_t total)
{
    auto k = makeKernel(kind, batching);
    Process &p = k->createProcess("bench");
    Vma &vma = p.mmap(total * kPageSize);
    const double us =
        wallUs([&] { touchPages(p, vma.start(), total, batching); });
    return us / total;
}

/**
 * us/page to read a `total`-page file in kBatchPages requests, or in
 * one-page requests.
 */
double
readFilePath(PolicyKind kind, bool batching, std::uint64_t total)
{
    auto k = makeKernel(kind, batching);
    File &f = k->createFile(total);
    const std::uint64_t step = batching ? kBatchPages : 1;
    const double us = wallUs([&] {
        for (std::uint64_t pg = 0; pg < total; pg += step)
            k->readFile(f, pg, step);
    });
    return us / total;
}

/**
 * us/page to fault a warm file mapping — the per-fault machinery
 * (VMA lookup, page-cache hit, install, accounting) with no
 * allocation cost in the way.
 */
double
fileTouch(PolicyKind kind, bool batching, std::uint64_t total)
{
    auto k = makeKernel(kind, batching);
    File &f = k->createFile(total);
    k->readFile(f, 0, total); // warm the cache (untimed)
    Process &p = k->createProcess("bench");
    Vma &vma = p.mmapFile(f.id(), total * kPageSize, 0);
    const double us = wallUs([&] {
        touchPages(p, vma.start(), total, batching, Access::Read);
    });
    return us / total;
}

void
addPathRow(Report &rep, const char *path, PolicyKind kind,
           double (*run)(PolicyKind, bool, std::uint64_t),
           std::uint64_t total, double &speedup)
{
    // Warm one run of each arm, then measure (steadies allocator and
    // page-cache cold-start noise).
    run(kind, false, total);
    run(kind, true, total);
    const double single = run(kind, false, total);
    const double batched = run(kind, true, total);
    speedup = single / batched;
    rep.row({path, policyName(kind), std::to_string(total),
             Report::num(single, 3), Report::num(batched, 3),
             Report::num(speedup, 2)});
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("micro_alloc_path", argc, argv);
    out.note("batch_pages", static_cast<std::uint64_t>(kBatchPages));
    out.note("total_pages", static_cast<std::uint64_t>(kTotalPages));

    Report rep("micro — fault path, batched vs per-fault "
               "(64-page spans, 4 KiB faults)");
    rep.header({"path", "policy", "pages", "per-fault wall us/page",
                "batched wall us/page", "wall speedup"});
    double anon_thp = 0, anon_ca = 0, touch_thp = 0, read_thp = 0,
           read_ca = 0;
    addPathRow(rep, "anon_populate_64", PolicyKind::Thp, anonPopulate,
               kTotalPages, anon_thp);
    // CA's contig-bit run marking is O(run length) per 4 KiB install
    // (quadratic over a sequential span, amortized away by THP in
    // real runs) — keep its span short so the bench stays quick.
    addPathRow(rep, "anon_populate_64", PolicyKind::Ca, anonPopulate,
               4096, anon_ca);
    addPathRow(rep, "file_touch_64", PolicyKind::Thp, fileTouch,
               kTotalPages, touch_thp);
    addPathRow(rep, "readfile_64", PolicyKind::Thp, readFilePath,
               kTotalPages, read_thp);
    addPathRow(rep, "readfile_64", PolicyKind::Ca, readFilePath,
               kTotalPages, read_ca);
    out.add(rep);
    rep.print();
    std::printf("\nbatched speedup: anon %.2fx (THP) / %.2fx (CA), "
                "file touch %.2fx, readfile fill %.2fx (THP) / "
                "%.2fx (CA)\n",
                anon_thp, anon_ca, touch_thp, read_thp, read_ca);

    // Raw primitive costs (the pieces the fault path composes).
    Report prim("micro — allocator primitives");
    prim.header({"op", "wall us/op"});
    {
        FrameArray frames(16 * pagesInOrder(kMaxOrder));
        BuddyAllocator buddy(frames, 0, frames.size());
        for (auto [label, order] :
             {std::pair<const char *, unsigned>{"buddy alloc+free 4K", 0},
              {"buddy alloc+free 2M", kHugeOrder}}) {
            const int iters = 100000;
            const double us = wallUs([&, order = order] {
                for (int i = 0; i < iters; ++i) {
                    auto pfn = buddy.alloc(order);
                    buddy.free(*pfn, order);
                }
            });
            prim.row({label, Report::num(us / iters, 4)});
        }
        Pfn target = 5 * pagesInOrder(kMaxOrder) + 512;
        const int iters = 100000;
        const double us = wallUs([&] {
            for (int i = 0; i < iters; ++i) {
                buddy.allocSpecific(target, kHugeOrder);
                buddy.free(target, kHugeOrder);
            }
        });
        prim.row({"buddy allocSpecific 2M", Report::num(us / iters, 4)});
    }
    for (int clusters : {8, 64, 512}) {
        const std::uint64_t block = pagesInOrder(kMaxOrder);
        ContiguityMap map(block);
        for (int i = 0; i < clusters; ++i)
            map.onBlockFree(2 * i * block); // every other block: no merge
        const int iters = 20000;
        const double us = wallUs([&] {
            for (int i = 0; i < iters; ++i)
                map.placeNextFit(block / 2);
        });
        prim.row({"contig-map placeNextFit (" +
                      std::to_string(clusters) + " clusters)",
                  Report::num(us / iters, 4)});
    }
    out.add(prim);
    prim.print();

    out.write();
    return 0;
}
