#include "policies/ca_paging.hh"

#include "base/align.hh"
#include "base/logging.hh"
#include "mm/kernel.hh"
#include "obs/metrics.hh"

namespace contig
{

CaPagingPolicy::CaPagingPolicy(const CaPagingConfig &cfg) : cfg_(cfg) {}

bool
CaPagingPolicy::takeTarget(Kernel &kernel, Pfn target, unsigned order)
{
    PhysicalMemory &pm = kernel.physMem();
    if (target >= pm.totalFrames())
        return false;
    if (!isAligned(target, pagesInOrder(order)))
        return false;
    // Occupancy probe via the mem_map (the paper's _count/_mapcount
    // check), then carve the exact block out of the buddy lists.
    if (pm.isFreePage(target) && pm.allocSpecific(target, order))
        return true;
    // Contiguity-aware reclaim: the target block is occupied, but its
    // residents may be reclaimable — evict them and retake instead of
    // abandoning the Offset (and the contiguity it would extend).
    if (ReclaimEngine *rec = kernel.reclaim(); rec && rec->contigAware()) {
        if (rec->reclaimRange(target, order) && pm.isFreePage(target) &&
            pm.allocSpecific(target, order)) {
            ++stats_.reclaimTakes;
            return true;
        }
    }
    return false;
}

AllocResult
CaPagingPolicy::place(Kernel &kernel, NodeId home, std::uint64_t req_pages,
                      unsigned order, std::uint64_t owner)
{
    (void)owner;
    AllocResult res;
    PhysicalMemory &pm = kernel.physMem();
    const unsigned n = pm.numNodes();
    for (unsigned i = 0; i < n; ++i) {
        Zone &zone = pm.zone((home + i) % n);
        ContiguityMap &map = zone.contigMap();
        const std::uint64_t steps_before = map.stats().placementScanSteps;
        const std::optional<Cluster> cluster = map.placeNextFit(req_pages);
        res.placementCycles +=
            cfg_.placementBaseCycles +
            cfg_.cyclesPerScanStep *
                (map.stats().placementScanSteps - steps_before);
        if (!cluster)
            continue; // zone has no top-order blocks left
        if (takeTarget(kernel, cluster->startPfn, order)) {
            res.pfn = cluster->startPfn;
            return res;
        }
        // The cluster's first block could not be taken (the probe/claim
        // race the paper accepts, §III-C). Fall through to the next
        // node.
    }
    // No contiguity anywhere: default allocation. Tag the failure
    // reason in place (not via AllocResult::failure, which would
    // discard the placement-scan cycles already accrued).
    if (auto pfn = pm.alloc(order, home))
        res.pfn = *pfn;
    else
        res.fail = order > 0 ? AllocFail::NoHugeBlock : AllocFail::Oom;
    return res;
}

AllocResult
CaPagingPolicy::allocate(Kernel &kernel, Process &proc, Vma &vma, Vpn vpn,
                         unsigned order)
{
    // Fast path: extend an existing sub-VMA mapping through its Offset.
    if (auto off = vma.nearestCaOffset(vpn)) {
        const std::int64_t target_signed =
            static_cast<std::int64_t>(vpn) - off->offsetPages;
        if (target_signed >= 0 &&
            takeTarget(kernel, static_cast<Pfn>(target_signed), order)) {
            ++stats_.offsetHits;
            AllocResult res;
            res.pfn = static_cast<Pfn>(target_signed);
            return res;
        }
        ++stats_.offsetMisses;

        if (order != kHugeOrder) {
            // 4 KiB failure: fall back to the default path; no Offset
            // tracking (the paper amortizes placement over huge
            // allocations only).
            ++stats_.fallbacks;
            return buddyAlloc(kernel, order, proc.homeNode());
        }

        // Huge failure: sub-VMA re-placement keyed by the remaining
        // unmapped size. The replacement guard's CAS admits exactly
        // one re-placing fault (§III-C); everyone else loses.
        if (!vma.tryBeginReplacement()) {
            // Loser path: retry the fast path against the winner's
            // freshly published Offset instead of stacking a redundant
            // re-placement. A few rounds bound the spin if the winner
            // is slow; if the retries exhaust, report NoHugeBlock and
            // let the fault engine demote to 4 KiB.
            constexpr int kLoserRetries = 4;
            for (int attempt = 0; attempt < kLoserRetries; ++attempt) {
                if (auto fresh = vma.nearestCaOffset(vpn)) {
                    const std::int64_t t =
                        static_cast<std::int64_t>(vpn) - fresh->offsetPages;
                    if (t >= 0 &&
                        takeTarget(kernel, static_cast<Pfn>(t), order)) {
                        ++stats_.offsetHits;
                        AllocResult res;
                        res.pfn = static_cast<Pfn>(t);
                        return res;
                    }
                }
                if (!vma.replacementActive())
                    break; // winner done; its Offset still failed us
            }
            return AllocResult::failure(order);
        }
        const std::uint64_t remaining =
            vma.pages() > vma.allocatedPages
                ? vma.pages() - vma.allocatedPages
                : pagesInOrder(order);
        AllocResult res = place(kernel, proc.homeNode(), remaining,
                                order, placementOwner(proc, vma));
        if (res.ok()) {
            ++stats_.subVmaPlacements;
            // Publish the new Offset before releasing the guard so
            // losers retry against it the moment the guard clears.
            vma.pushCaOffset(vpn, static_cast<std::int64_t>(vpn) -
                                      static_cast<std::int64_t>(res.pfn));
        }
        vma.endReplacement();
        return res;
    }

    // First fault of this VMA: placement decision keyed by VMA size.
    AllocResult res = place(kernel, proc.homeNode(), vma.pages(), order,
                            placementOwner(proc, vma));
    if (res.ok()) {
        ++stats_.placements;
        vma.pushCaOffset(vpn, static_cast<std::int64_t>(vpn) -
                                  static_cast<std::int64_t>(res.pfn));
    }
    return res;
}

AllocResult
CaPagingPolicy::allocateFilePage(Kernel &kernel, File &file,
                                 std::uint64_t file_page)
{
    // Page-cache steering: one Offset per file (struct address_space).
    if (file.caOffsetPages) {
        const std::int64_t target_signed =
            static_cast<std::int64_t>(file_page) - *file.caOffsetPages;
        if (target_signed >= 0 &&
            takeTarget(kernel, static_cast<Pfn>(target_signed), 0)) {
            ++stats_.offsetHits;
            AllocResult res;
            res.pfn = static_cast<Pfn>(target_signed);
            return res;
        }
        ++stats_.offsetMisses;
    }

    // (Re-)place: key by what is left of the file.
    const std::uint64_t remaining = file.sizePages() - file_page;
    AllocResult res = place(kernel, 0, remaining, 0, kCaFileOwner);
    if (res.ok()) {
        ++stats_.filePlacements;
        file.caOffsetPages = static_cast<std::int64_t>(file_page) -
                             static_cast<std::int64_t>(res.pfn);
    }
    return res;
}

void
CaPagingPolicy::onMapped(Kernel &kernel, Process &proc, Vma &vma, Vpn vpn,
                         Pfn pfn, unsigned order)
{
    (void)kernel;
    (void)vma;
    if (!cfg_.markContigBits)
        return;

    PageTable &pt = proc.pageTable();
    const std::int64_t offset =
        static_cast<std::int64_t>(vpn) - static_cast<std::int64_t>(pfn);
    const std::uint64_t new_pages = pagesInOrder(order);

    // Compute the contiguous run [run_start, run_end) around the new
    // mapping by walking neighbouring leaves while offsets match.
    Vpn run_start = vpn;
    while (run_start > 0) {
        auto m = pt.lookup(run_start - 1);
        if (!m || !m->valid())
            break;
        const Vpn leaf_base = (run_start - 1) & ~(pagesInOrder(m->order) - 1);
        const std::int64_t leaf_off = static_cast<std::int64_t>(leaf_base) -
                                      static_cast<std::int64_t>(m->pfn);
        if (leaf_off != offset)
            break;
        run_start = leaf_base;
    }
    Vpn run_end = vpn + new_pages;
    while (true) {
        auto m = pt.lookup(run_end);
        if (!m || !m->valid())
            break;
        const std::int64_t leaf_off = static_cast<std::int64_t>(run_end) -
                                      static_cast<std::int64_t>(m->pfn);
        if (leaf_off != offset)
            break;
        run_end += pagesInOrder(m->order);
    }

    if (run_end - run_start < cfg_.markThresholdPages)
        return;

    // Mark every leaf of the run whose bit is not yet set.
    for (Vpn v = run_start; v < run_end;) {
        auto m = pt.lookup(v);
        contig_assert(m && m->valid(), "hole inside a contiguous run");
        if (!m->contigBit) {
            pt.setContigBit(v, true);
            ++stats_.markedPtes;
        }
        v += pagesInOrder(m->order);
    }
}

void
CaPagingPolicy::collectMetrics(obs::MetricSink &sink) const
{
    sink.counter("placements", stats_.placements);
    sink.counter("sub_vma_placements", stats_.subVmaPlacements);
    sink.counter("offset_hits", stats_.offsetHits);
    sink.counter("offset_misses", stats_.offsetMisses);
    sink.counter("fallbacks", stats_.fallbacks);
    sink.counter("file_placements", stats_.filePlacements);
    sink.counter("marked_ptes", stats_.markedPtes);
    // Only present on reclaim kernels, so committed baselines from
    // reclaim-off runs keep their exact metric set.
    if (const std::uint64_t rt = stats_.reclaimTakes)
        sink.counter("reclaim_takes", rt);
}

} // namespace contig
