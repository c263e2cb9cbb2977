#include "mm/reclaim.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "mm/kernel.hh"
#include "obs/metrics.hh"

namespace contig
{

namespace
{

/** Modelled CPU cost of examining one LRU candidate. */
constexpr Cycles kScanCyclesPerEntry = 80;
/** Modelled cost of one 64-probe contiguity score of a 2 MiB block. */
constexpr Cycles kScoreCycles = 200;
/** Candidates popped off the inactive tail per scan round. */
constexpr std::size_t kScanBatch = 32;
/** Contiguity-score probe stride (64 probes across 512 pages). */
constexpr std::uint64_t kScoreStride = 8;

} // namespace

ReclaimEngine::ReclaimEngine(Kernel &kernel)
    : kernel_(kernel),
      contigAware_(kernel.config().contigAwareReclaim),
      cost_(kernel.config().swapCost)
{}

// --- frame lifecycle hooks ------------------------------------------------

void
ReclaimEngine::onClaim(Pfn pfn, unsigned order, FrameOwner kind)
{
    if (kind != FrameOwner::Anon && kind != FrameOwner::PageCache)
        return; // page-table pool frames are kernel-pinned
    PhysicalMemory &pm = kernel_.physMem();
    pm.frame(pfn).referenced = false;
    pm.zoneOf(pfn).lruInsert(Frame::LruList::Inactive, pfn, order);
}

void
ReclaimEngine::onFree(Pfn pfn)
{
    kernel_.physMem().zoneOf(pfn).lruRemove(pfn);
}

void
ReclaimEngine::noteReferenced(Pfn head)
{
    kernel_.physMem().frame(head).referenced = true;
}

// --- swap -----------------------------------------------------------------

Cycles
ReclaimEngine::recordSwapOut(std::uint32_t pid, Vpn vpn)
{
    const std::uint64_t slot = nextSlot_++;
    swapMap_[pid][vpn] = slot;
    // Freshly written-back pages linger in the swap cache; a refault
    // that arrives before eviction pays a copy, not a device read.
    swapCacheFifo_.push_back(slot);
    swapCacheSet_.insert(slot);
    while (swapCacheFifo_.size() > cost_.cachePages) {
        swapCacheSet_.erase(swapCacheFifo_.front());
        swapCacheFifo_.pop_front();
    }
    ++swappedPages_;
    stats_.swapOuts.fetch_add(1, std::memory_order_relaxed);
    return cost_.outCyclesPerPage;
}

Cycles
ReclaimEngine::chargeSwapIn(std::uint32_t pid, Vpn base, unsigned order)
{
    // Fast path: nothing is swapped out anywhere, which is what every
    // fault in an unpressured run sees.
    if (swappedPages_ == 0)
        return 0;
    auto pit = swapMap_.find(pid);
    if (pit == swapMap_.end())
        return 0;
    auto &vmap = pit->second;
    Cycles stall = 0;
    const std::uint64_t n = pagesInOrder(order);
    std::uint64_t hits = 0, reads = 0;
    for (std::uint64_t i = 0; i < n && !vmap.empty(); ++i) {
        auto it = vmap.find(base + i);
        if (it == vmap.end())
            continue;
        if (swapCacheSet_.count(it->second)) {
            stall += cost_.cacheHitCycles;
            ++hits;
        } else {
            stall += cost_.inCyclesPerPage;
            ++reads;
        }
        vmap.erase(it);
        --swappedPages_;
    }
    if (vmap.empty())
        swapMap_.erase(pit);
    if (hits)
        stats_.swapCacheHits.fetch_add(hits, std::memory_order_relaxed);
    if (hits + reads)
        stats_.refaults.fetch_add(hits + reads, std::memory_order_relaxed);
    return stall;
}

void
ReclaimEngine::dropVmaRange(std::uint32_t pid, Vpn start, std::uint64_t pages)
{
    if (swappedPages_ == 0)
        return;
    auto pit = swapMap_.find(pid);
    if (pit == swapMap_.end())
        return;
    auto &vmap = pit->second;
    std::uint64_t dropped = 0;
    for (auto it = vmap.begin(); it != vmap.end();) {
        if (it->first >= start && it->first < start + pages) {
            it = vmap.erase(it);
            ++dropped;
        } else {
            ++it;
        }
    }
    if (vmap.empty())
        swapMap_.erase(pit);
    swappedPages_ -= dropped;
}

// --- pressure entry points ------------------------------------------------

void
ReclaimEngine::checkWatermarks(NodeId node)
{
    Zone &zone = kernel_.physMem().zone(node);
    const Watermarks &wm = zone.watermarks();
    const std::uint64_t free = zone.buddy().freePages();
    if (free >= wm.low)
        return;
    stats_.lowHits.fetch_add(1, std::memory_order_relaxed);
    if (free < wm.min)
        stats_.minHits.fetch_add(1, std::memory_order_relaxed);
    // There is no kswapd thread: the balancing work it would do
    // happens synchronously here, at fault entry.
    if (!kernel_.config().kswapdEnabled)
        return;
    stats_.kswapdWakes.fetch_add(1, std::memory_order_relaxed);
    Progress p = balanceNode(node);
    stats_.kswapdCycles.fetch_add(p.cycles, std::memory_order_relaxed);
}

ReclaimEngine::Progress
ReclaimEngine::balanceNode(NodeId node)
{
    Zone &zone = kernel_.physMem().zone(node);
    const Watermarks &wm = zone.watermarks();
    Progress total;
    stats_.kswapdRuns.fetch_add(1, std::memory_order_relaxed);
    while (true) {
        const std::uint64_t free = zone.buddy().freePages();
        if (free >= wm.high)
            break;
        Progress p = shrinkZone(zone, wm.high - free);
        total.freed += p.freed;
        total.cycles += p.cycles;
        if (p.freed == 0)
            break; // zone is all pinned; give up until the next probe
    }
    return total;
}

ReclaimEngine::Progress
ReclaimEngine::directReclaim(NodeId node, std::uint64_t want_pages)
{
    stats_.directReclaims.fetch_add(1, std::memory_order_relaxed);
    PhysicalMemory &pm = kernel_.physMem();
    Progress total;
    for (unsigned i = 0; i < pm.numNodes() && total.freed < want_pages;
         ++i) {
        Zone &zone = pm.zone((node + i) % pm.numNodes());
        Progress p = shrinkZone(zone, want_pages - total.freed);
        total.freed += p.freed;
        total.cycles += p.cycles;
    }
    stats_.directCycles.fetch_add(total.cycles, std::memory_order_relaxed);
    return total;
}

std::uint64_t
ReclaimEngine::reclaimRange(Pfn base, unsigned order)
{
    stats_.targetedReclaims.fetch_add(1, std::memory_order_relaxed);
    PhysicalMemory &pm = kernel_.physMem();
    Zone &zone = pm.zoneOf(base);
    const Pfn end = base + pagesInOrder(order);
    Progress prog;
    Pfn p = base;
    while (p < end) {
        prog.cycles += kScanCyclesPerEntry;
        if (!zone.buddy().inUse(p)) {
            ++p;
            continue;
        }
        // The owner lives in the head of the claimed block covering p;
        // a block allocated but not yet claimed has none.
        const Pfn head = kernel_.claimHead(p);
        const FrameOwner kind = head == kInvalidPfn
                                    ? FrameOwner::None
                                    : pm.frame(head).ownerKind;
        Pfn next = p + 1;
        if (kind == FrameOwner::Anon) {
            // Find the mapping head covering p so whole leaves
            // (including huge ones) are evicted in one step.
            const Frame &h = pm.frame(head);
            const Addr va = h.ownerVaddr + (p - head) * kPageSize;
            if (Process *proc = kernel_.findProcess(h.ownerId)) {
                if (auto m = proc->pageTable().lookup(Gva{va}.pageNumber());
                    m && m->valid()) {
                    const Victim v = evictAnon(zone, m->pfn, m->order, prog);
                    if (v == Victim::Freed) {
                        next = std::max(next,
                                        m->pfn + pagesInOrder(m->order));
                    } else if (v == Victim::Split) {
                        next = p; // re-examine as 4 KiB mappings
                    }
                }
            }
        } else if (kind == FrameOwner::PageCache) {
            evictPageCache(zone, head, prog);
        } else {
            stats_.pinnedSkips.fetch_add(1, std::memory_order_relaxed);
        }
        p = next;
    }
    stats_.directCycles.fetch_add(prog.cycles, std::memory_order_relaxed);
    return prog.freed;
}

// --- the scanner ----------------------------------------------------------

unsigned
ReclaimEngine::contigScore(Pfn head) const
{
    const std::uint64_t hp = pagesInOrder(kHugeOrder);
    const Pfn block = head & ~(hp - 1);
    // Zones are top-order aligned, so the 2 MiB block is in head's zone.
    const BuddyAllocator &buddy = kernel_.physMem().zoneOf(head).buddy();
    unsigned occupied = 0;
    for (Pfn p = block; p < block + hp; p += kScoreStride) {
        if (buddy.inUse(p))
            ++occupied;
    }
    return occupied;
}

ReclaimEngine::Victim
ReclaimEngine::evictAnon(Zone &zone, Pfn head, unsigned order,
                         Progress &out)
{
    PhysicalMemory &pm = kernel_.physMem();
    Frame &f = pm.frame(head);

    // The owner triple names the candidate mapping; everything below
    // validates it against the page table.
    if (f.ownerKind != FrameOwner::Anon)
        return Victim::Gone;
    const std::uint32_t pid = f.ownerId;
    const Addr va = f.ownerVaddr;

    Process *proc = kernel_.findProcess(pid);
    if (!proc)
        return Victim::Gone;
    Vma *vma = proc->addressSpace().findVma(Gva{va});
    if (!vma)
        return Victim::Gone;
    if (vma->kind() != VmaKind::Anon) {
        // Guest RAM is the VM's "physical" memory: pinned, like pages
        // under an IOMMU mapping. Permanently unlisted.
        return Victim::Pinned;
    }

    const Vpn vpn = Gva{va}.pageNumber();
    auto m = proc->pageTable().lookup(vpn);
    if (!m || !m->valid() || m->pfn != head || m->order != order)
        return Victim::Gone;
    if (f.refCount != 1 || m->cow) {
        // COW-shared after a fork: a second process holds a reference;
        // swapping would need an rmap walk we don't model. Pinned.
        return Victim::Pinned;
    }

    if (order != 0) {
        // THP on the reclaim path: split first (split_huge_page), then
        // reclaim the 512 base candidates individually. They are listed
        // at the scan end, descending, so the scanner pops them back in
        // ascending pfn order — frees merge back toward one buddy block
        // as eviction proceeds.
        kernel_.splitClaim(proc->pageTable(),
                           vpn & ~(pagesInOrder(order) - 1), head, 0);
        for (std::uint64_t i = pagesInOrder(order); i > 0; --i)
            zone.lruInsertTail(Frame::LruList::Inactive, head + i - 1, 0);
        out.cycles += kernel_.config().faultBaseCycles;
        stats_.thpSplits.fetch_add(1, std::memory_order_relaxed);
        return Victim::Split;
    }

    // putFrame's onFree unlists; here the block is already off.
    kernel_.unmapLeaf(proc->pageTable(), vpn, 0);
    vma->allocatedPages -= 1;
    out.cycles += recordSwapOut(pid, vpn);
    out.freed += 1;
    stats_.reclaimed.fetch_add(1, std::memory_order_relaxed);
    return Victim::Freed;
}

ReclaimEngine::Victim
ReclaimEngine::evictPageCache(Zone &, Pfn pfn, Progress &out)
{
    if (fillDepth_ > 0) {
        // Reclaim is running inside a page-cache fill: evicting could
        // free pages the enclosing readahead run just installed.
        return Victim::Requeued;
    }
    PhysicalMemory &pm = kernel_.physMem();
    Frame &f = pm.frame(pfn);

    if (f.ownerKind != FrameOwner::PageCache)
        return Victim::Gone;
    if (f.refCount != 1 || f.mapCount != 0) {
        // Still mapped by some VMA: not evictable until unmapped. The
        // caller promotes it out of the scan window.
        return Victim::Rotated;
    }
    const std::uint32_t file_id = f.ownerId;
    const std::uint64_t page = f.ownerVaddr >> kPageShift;
    if (file_id >= kernel_.pageCache().fileCount())
        return Victim::Gone;
    File &file = kernel_.pageCache().file(file_id);
    if (page >= file.sizePages() || file.frameFor(page) != pfn)
        return Victim::Gone;

    file.evict(page);
    kernel_.putFrame(pfn, 0);
    out.freed += 1;
    stats_.reclaimed.fetch_add(1, std::memory_order_relaxed);
    stats_.pagecacheReclaimed.fetch_add(1, std::memory_order_relaxed);
    return Victim::Freed;
}

ReclaimEngine::Victim
ReclaimEngine::scanOne(Zone &zone, const Zone::LruEntry &e, Progress &out)
{
    PhysicalMemory &pm = kernel_.physMem();
    Frame &f = pm.frame(e.head);
    stats_.scans.fetch_add(1, std::memory_order_relaxed);
    out.cycles += kScanCyclesPerEntry;

    const FrameOwner kind = f.ownerKind;
    if (kind != FrameOwner::Anon && kind != FrameOwner::PageCache)
        return Victim::Pinned;

    // Second chance: a block touched since the last scan rotates to
    // the active list instead of being evicted.
    if (f.testClearReferenced()) {
        zone.lruRequeue(Frame::LruList::Active, e.head, e.order);
        stats_.rotations.fetch_add(1, std::memory_order_relaxed);
        return Victim::Rotated;
    }

    Victim v = kind == FrameOwner::Anon
                   ? evictAnon(zone, e.head, e.order, out)
                   : evictPageCache(zone, e.head, out);
    switch (v) {
    case Victim::Requeued:
        stats_.busySkips.fetch_add(1, std::memory_order_relaxed);
        zone.lruRequeue(Frame::LruList::Inactive, e.head, e.order);
        break;
    case Victim::Pinned:
        // Left off every list: never a candidate again (until freed
        // and re-claimed, which re-lists it).
        stats_.pinnedSkips.fetch_add(1, std::memory_order_relaxed);
        break;
    case Victim::Rotated:
        zone.lruRequeue(Frame::LruList::Active, e.head, e.order);
        stats_.rotations.fetch_add(1, std::memory_order_relaxed);
        break;
    default:
        break; // Freed / Split / Gone need no relisting here
    }
    return v;
}

ReclaimEngine::Progress
ReclaimEngine::shrinkZone(Zone &zone, std::uint64_t target)
{
    PhysicalMemory &pm = kernel_.physMem();
    Progress prog;
    Zone::LruEntry buf[kScanBatch];
    unsigned dry_rounds = 0;

    // Two dry batches in a row are final: nothing else changes the
    // lists meanwhile, so more scanning is pure waste. The scan budget
    // caps one call at about one full pass over the lists.
    const std::uint64_t scan_budget =
        zone.lruPages(Frame::LruList::Inactive) +
        zone.lruPages(Frame::LruList::Active) + 2 * kScanBatch;
    std::uint64_t scanned = 0;

    while (prog.freed < target && dry_rounds < 2 &&
           scanned < scan_budget) {
        // Keep the lists balanced the way vmscan does: when the
        // inactive list runs short, demote from the active tail
        // (referenced blocks get their second chance back at the
        // active head instead).
        if (zone.lruPages(Frame::LruList::Inactive) <
            zone.lruPages(Frame::LruList::Active)) {
            const std::size_t na =
                zone.lruPopTail(Frame::LruList::Active, kScanBatch, buf);
            for (std::size_t i = 0; i < na; ++i) {
                Frame &f = pm.frame(buf[i].head);
                prog.cycles += kScanCyclesPerEntry;
                if (f.testClearReferenced()) {
                    zone.lruRequeue(Frame::LruList::Active, buf[i].head,
                                    buf[i].order);
                } else {
                    zone.lruRequeue(Frame::LruList::Inactive, buf[i].head,
                                    buf[i].order);
                    stats_.deactivations.fetch_add(
                        1, std::memory_order_relaxed);
                }
            }
        }

        const std::size_t n =
            zone.lruPopTail(Frame::LruList::Inactive, kScanBatch, buf);
        scanned += n;
        if (n == 0) {
            ++dry_rounds;
            continue;
        }

        const std::uint64_t before = prog.freed;

        // Contiguity-aware victim selection: evict low-occupancy
        // blocks first — their frames merge into large free blocks,
        // so the same reclaim target restores more contiguity.
        std::size_t idx[kScanBatch];
        for (std::size_t i = 0; i < n; ++i)
            idx[i] = i;
        if (contigAware_) {
            unsigned score[kScanBatch];
            for (std::size_t i = 0; i < n; ++i) {
                score[i] = contigScore(buf[i].head);
                prog.cycles += kScoreCycles;
            }
            std::stable_sort(idx, idx + n, [&](std::size_t a,
                                               std::size_t b) {
                return score[a] < score[b];
            });
        }

        for (std::size_t i = 0; i < n; ++i) {
            if (prog.freed >= target) {
                // Unprocessed leftovers go back to the far end.
                zone.lruRequeue(Frame::LruList::Inactive, buf[idx[i]].head,
                                buf[idx[i]].order);
                continue;
            }
            scanOne(zone, buf[idx[i]], prog);
        }

        dry_rounds = prog.freed == before ? dry_rounds + 1 : 0;
    }
    return prog;
}

// --- observation ----------------------------------------------------------

void
ReclaimEngine::collectMetrics(obs::MetricSink &sink) const
{
    const auto c = [&](std::string_view name,
                       const std::atomic<std::uint64_t> &v) {
        sink.counter(name, v.load(std::memory_order_relaxed));
    };
    c("scans", stats_.scans);
    c("rotations", stats_.rotations);
    c("deactivations", stats_.deactivations);
    c("reclaimed", stats_.reclaimed);
    c("swap_outs", stats_.swapOuts);
    c("refaults", stats_.refaults);
    c("swap_cache_hits", stats_.swapCacheHits);
    c("thp_splits", stats_.thpSplits);
    c("pagecache_reclaimed", stats_.pagecacheReclaimed);
    c("kswapd_wakes", stats_.kswapdWakes);
    c("kswapd_runs", stats_.kswapdRuns);
    c("direct_reclaims", stats_.directReclaims);
    c("targeted_reclaims", stats_.targetedReclaims);
    c("direct_cycles", stats_.directCycles);
    c("kswapd_cycles", stats_.kswapdCycles);
    c("low_watermark_hits", stats_.lowHits);
    c("min_watermark_hits", stats_.minHits);
    c("pinned_skips", stats_.pinnedSkips);
    c("busy_skips", stats_.busySkips);
    sink.summary("swapped_pages", static_cast<double>(swappedPages_));

    const PhysicalMemory &pm = kernel_.physMem();
    std::uint64_t inactive = 0, active = 0;
    for (unsigned n = 0; n < pm.numNodes(); ++n) {
        const Zone &zone = pm.zone(n);
        inactive += zone.lruPages(Frame::LruList::Inactive);
        active += zone.lruPages(Frame::LruList::Active);
    }
    sink.summary("lru_inactive_pages", static_cast<double>(inactive));
    sink.summary("lru_active_pages", static_cast<double>(active));
}

} // namespace contig
