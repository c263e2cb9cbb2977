#include "tlb/walker.hh"

#include "base/logging.hh"
#include "obs/metrics.hh"
#include "virt/vm.hh"

namespace contig
{

Walker::SoaCache::SoaCache(unsigned n)
    : entries(n), tags(simd::padLanes(n), simd::kNoTag64),
      lastUse(simd::padLanes(n), 0), valid(simd::padLanes(n), 0)
{
}

Walker::Walker(const PageTable &pt, const WalkerConfig &cfg)
    : pt_(pt), cfg_(cfg), psc_(cfg.pscEntries),
      nestedTlb_(cfg.nestedTlbEntries), simd_(simd::enabled())
{
    if (cfg.memoEnabled)
        memo_ = std::make_unique<WalkMemo>(cfg.memoEntriesLog2);
}

Walker::Walker(const PageTable &guest_pt, const VirtualMachine &vm,
               const WalkerConfig &cfg)
    : pt_(guest_pt), vm_(&vm), cfg_(cfg), psc_(cfg.pscEntries),
      nestedTlb_(cfg.nestedTlbEntries), simd_(simd::enabled())
{
    if (cfg.memoEnabled)
        memo_ = std::make_unique<WalkMemo>(cfg.memoEntriesLog2);
}

bool
Walker::cacheLookup(SoaCache &cache, std::uint64_t tag)
{
    const int i = simd::findTag(cache.tags.data(), cache.entries, tag,
                                simd_);
    if (i < 0)
        return false;
    cache.lastUse[i] = ++clock_;
    return true;
}

void
Walker::cacheFill(SoaCache &cache, std::uint64_t tag)
{
    contig_assert(tag != simd::kNoTag64, "walker cache tag collides "
                  "with the invalid-lane sentinel");
    // Deliberately the historical ordered scan: the first invalid
    // slot is taken as victim even if a matching entry sits after it
    // (the duplicate is tolerated; cacheLookup returns the earliest).
    unsigned victim = 0;
    for (unsigned i = 0; i < cache.entries; ++i) {
        if (cache.tags[i] == tag) {
            cache.lastUse[i] = ++clock_;
            return;
        }
        if (!cache.valid[i]) {
            victim = i;
            break;
        }
        if (cache.lastUse[i] < cache.lastUse[victim])
            victim = i;
    }
    cache.valid[victim] = 1;
    cache.tags[victim] = tag;
    cache.lastUse[victim] = ++clock_;
}

void
Walker::flushCaches()
{
    for (std::size_t i = 0; i < psc_.valid.size(); ++i) {
        psc_.valid[i] = 0;
        psc_.tags[i] = simd::kNoTag64;
    }
    for (std::size_t i = 0; i < nestedTlb_.valid.size(); ++i) {
        nestedTlb_.valid[i] = 0;
        nestedTlb_.tags[i] = simd::kNoTag64;
    }
}

void
Walker::nestedResolve(Pfn gfn, bool &hit, unsigned &count, Mapping &m)
{
    if (memo_) {
        const std::uint64_t gen = vm_->nestedPageTable().generation();
        if (const WalkMemo::NestedEntry *e = memo_->findNested(gfn, gen)) {
            hit = e->hit;
            count = e->nodeCount;
            m = e->mapping;
            return;
        }
        vm_->nestedWalk(gfn, nestedScratch_);
        memo_->fillNested(gfn, gen, nestedScratch_);
    } else {
        vm_->nestedWalk(gfn, nestedScratch_);
    }
    hit = nestedScratch_.hit;
    count = static_cast<unsigned>(nestedScratch_.nodeFrames.size());
    m = nestedScratch_.mapping;
}

std::optional<Mapping>
Walker::nestedTranslate(Pfn gfn, unsigned &refs)
{
    contig_assert(vm_, "nested translation without a VM");
    if (cfg_.nestedTlbEnabled) {
        ++stats_.nestedTlbLookups;
        // The nested TLB caches gPA->hPA at 2 MiB grain (host backing
        // is predominantly THP-mapped).
        if (cacheLookup(nestedTlb_, gfn >> kHugeOrder)) {
            ++stats_.nestedTlbHits;
            // A nested-TLB hit charges no refs; the memo (epoch-
            // checked) serves the same exact mapping nestedLookup
            // would descend for.
            if (memo_) {
                const std::uint64_t gen =
                    vm_->nestedPageTable().generation();
                if (const WalkMemo::NestedEntry *e =
                        memo_->findNested(gfn, gen)) {
                    if (!e->hit)
                        return std::nullopt;
                    return e->mapping;
                }
            }
            return vm_->nestedLookup(gfn);
        }
    }
    bool hit = false;
    unsigned count = 0;
    Mapping m;
    nestedResolve(gfn, hit, count, m);
    refs += count;
    if (!hit)
        return std::nullopt;
    // Refill the nested TLB with whatever nested leaf was resolved.
    if (cfg_.nestedTlbEnabled)
        cacheFill(nestedTlb_, gfn >> kHugeOrder);
    return m;
}

Walker::GuestView
Walker::guestTraversal(Vpn vpn)
{
    GuestView view;
    if (memo_) {
        const std::uint64_t gen = pt_.generation();
        if (const WalkMemo::GuestEntry *e = memo_->findGuest(vpn, gen)) {
            view.frames = e->nodeFrames.data();
            view.count = e->nodeCount;
            view.mapping = e->mapping;
            view.hit = e->hit;
            return view;
        }
        pt_.walk(vpn, guestScratch_);
        memo_->fillGuest(vpn, gen, guestScratch_);
    } else {
        pt_.walk(vpn, guestScratch_);
    }
    view.frames = guestScratch_.nodeFrames.data();
    view.count = static_cast<unsigned>(guestScratch_.nodeFrames.size());
    view.mapping = guestScratch_.mapping;
    view.hit = guestScratch_.hit;
    return view;
}

WalkResult
Walker::walk(Vpn vpn)
{
    WalkResult res;
    ++stats_.walks;

    const GuestView gtrace = guestTraversal(vpn);

    // PSC: L4+L3 reads skipped on a hit (tag covers 1 GiB regions).
    unsigned guest_refs = gtrace.count;
    unsigned skipped = 0;
    if (cfg_.pscEnabled && guest_refs > 2) {
        const std::uint64_t tag = vpn >> 18;
        if (cacheLookup(psc_, tag)) {
            ++stats_.pscHits;
            res.pscHit = true;
            // Root and L3 reads avoided; the last two levels (the
            // PDE/leaf reads) are always performed.
            skipped = std::min(2u, guest_refs - 2);
        } else {
            cacheFill(psc_, tag);
        }
    }

    unsigned refs = 0;
    if (!vm_) {
        refs = guest_refs - skipped;
    } else {
        // Nested: each remaining guest node read needs a nested
        // translation of the node's gPA plus the node read itself.
        for (unsigned i = skipped; i < gtrace.count; ++i) {
            nestedTranslate(gtrace.frames[i], refs);
            refs += 1; // the guest PTE read
        }
    }

    if (!gtrace.hit) {
        res.hit = false;
        res.refs = refs;
        res.cycles = refs * cfg_.cyclesPerRef;
        stats_.totalRefs += refs;
        return res;
    }

    Mapping leaf = gtrace.mapping;
    // Exact frame for this vpn inside the (possibly huge) leaf.
    const Vpn leaf_base = vpn & ~(pagesInOrder(leaf.order) - 1);
    const Pfn exact_gfn = leaf.pfn + (vpn - leaf_base);

    if (!vm_) {
        res.hit = true;
        res.mapping = leaf;
        res.guestContigBit = leaf.contigBit;
        res.offset = static_cast<std::int64_t>(vpn) -
                     static_cast<std::int64_t>(exact_gfn);
    } else {
        // Final nested walk for the data gPA.
        auto nested = nestedTranslate(exact_gfn, refs);
        if (!nested) {
            res.hit = false;
            res.refs = refs;
            res.cycles = refs * cfg_.cyclesPerRef;
            stats_.totalRefs += refs;
            return res;
        }
        res.hit = true;
        res.mapping = *nested;
        // The effective 2-D page order is the smaller of the two.
        res.mapping.order = std::min<unsigned>(leaf.order, nested->order);
        res.guestContigBit = leaf.contigBit;
        res.nestedContigBit = nested->contigBit;
        res.offset = static_cast<std::int64_t>(vpn) -
                     static_cast<std::int64_t>(nested->pfn);
    }

    res.refs = refs;
    res.cycles = refs * cfg_.cyclesPerRef;
    stats_.totalRefs += refs;
    return res;
}

void
Walker::collectMetrics(obs::MetricSink &sink) const
{
    sink.counter("walks", stats_.walks);
    sink.counter("total_refs", stats_.totalRefs);
    sink.counter("psc_hits", stats_.pscHits);
    sink.counter("nested_tlb_hits", stats_.nestedTlbHits);
    sink.counter("nested_tlb_lookups", stats_.nestedTlbLookups);
    if (memo_) {
        const WalkMemoStats &ms = memo_->stats();
        sink.counter("memo.guest_hits", ms.guestHits);
        sink.counter("memo.guest_misses", ms.guestMisses);
        sink.counter("memo.nested_hits", ms.nestedHits);
        sink.counter("memo.nested_misses", ms.nestedMisses);
        sink.counter("memo.stale_drops", ms.staleDrops);
    }
}

} // namespace contig
