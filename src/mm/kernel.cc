#include "mm/kernel.hh"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "base/align.hh"
#include "base/logging.hh"
#include "obs/observatory.hh"

namespace contig
{

KernelConfig
Kernel::normalized(KernelConfig cfg)
{
    // Fan the pressure switch out to the zones (watermarks and LRU
    // lists live there).
    cfg.phys.zone.reclaim = cfg.reclaimEnabled;
    return cfg;
}

Kernel::Kernel(const KernelConfig &cfg,
               std::unique_ptr<AllocationPolicy> policy)
    : cfg_(normalized(cfg)), physMem_(cfg_.phys), policy_(std::move(policy))
{
    contig_assert(policy_ != nullptr, "kernel needs an allocation policy");
    engine_ = std::make_unique<FaultEngine>(*this);
    if (cfg_.reclaimEnabled)
        reclaim_ = std::make_unique<ReclaimEngine>(*this);
    metricSource_ = obs::MetricSource(
        obs::MetricRegistry::global(), cfg_.metricsPrefix,
        [this](obs::MetricSink &sink) { collectMetrics(sink); });

    // Reproducibility record: the full knob set of every kernel
    // instantiated during a run ends up in the bench JSON config
    // block (config.run), keyed by the metrics prefix so host and
    // guest kernels stay distinguishable.
    obs::RunInfo &ri = obs::RunInfo::global();
    const std::string p = cfg_.metricsPrefix + ".";
    ri.count(p + "instances");
    ri.note(p + "thp_enabled", cfg_.thpEnabled);
    ri.note(p + "fault_base_cycles", cfg_.faultBaseCycles);
    ri.note(p + "zero_cycles_per_page", cfg_.zeroCyclesPerPage);
    ri.note(p + "copy_cycles_per_page", cfg_.copyCyclesPerPage);
    ri.note(p + "cycles_per_us", cfg_.cyclesPerUs);
    ri.note(p + "tick_period_faults", cfg_.tickPeriodFaults);
    ri.note(p + "page_table_levels",
            static_cast<std::uint64_t>(cfg_.pageTableLevels));
    ri.note(p + "phys.bytes_per_node", cfg_.phys.bytesPerNode);
    ri.note(p + "phys.num_nodes",
            static_cast<std::uint64_t>(cfg_.phys.numNodes));
    ri.note(p + "phys.max_order",
            static_cast<std::uint64_t>(cfg_.phys.zone.maxOrder));
    ri.note(p + "phys.sorted_top_list", cfg_.phys.zone.sortedTopList);
    ri.note(p + "phys.scramble_seed", cfg_.phys.zone.scrambleSeed);
    // Pressure knobs are recorded only when the path is armed so
    // reclaim-off runs keep their pre-reclaim config block (and stay
    // byte-identical to the committed goldens).
    if (cfg_.reclaimEnabled) {
        ri.note(p + "reclaim_enabled", cfg_.reclaimEnabled);
        ri.note(p + "kswapd_enabled", cfg_.kswapdEnabled);
        ri.note(p + "contig_aware_reclaim", cfg_.contigAwareReclaim);
        ri.note(p + "swap.out_cycles_per_page", cfg_.swapCost.outCyclesPerPage);
        ri.note(p + "swap.in_cycles_per_page", cfg_.swapCost.inCyclesPerPage);
        ri.note(p + "swap.cache_hit_cycles", cfg_.swapCost.cacheHitCycles);
        ri.note(p + "swap.cache_pages", cfg_.swapCost.cachePages);
    }
}

void
Kernel::collectMetrics(obs::MetricSink &sink) const
{
    const FaultStats &fs = engine_->stats();
    sink.counter("faults", fs.faults);
    sink.counter("huge_faults", fs.hugeFaults);
    sink.counter("base_faults", fs.baseFaults);
    sink.counter("cow_faults", fs.cowFaults);
    sink.counter("file_faults", fs.fileFaults);
    sink.counter("fault_cycles", fs.totalCycles);
    if (fs.latencyUs.count()) {
        sink.summary("fault_latency_us.p50", fs.latencyUs.quantile(0.50));
        sink.summary("fault_latency_us.p95", fs.latencyUs.quantile(0.95));
        sink.summary("fault_latency_us.p99", fs.latencyUs.quantile(0.99));
    }
    engine_->collectMetrics(sink);
    sink.summary("kernel_pool_pages",
                 static_cast<double>(kernelPoolPages()));
    sink.summary("processes", static_cast<double>(processes_.size()));

    for (const auto &[name, v] : counters_.all())
        sink.counter(name, v);

    // Per-zone allocator state merges into one "buddy." / one
    // "contig_map." group (MetricSample::mergeFrom merges by name:
    // a point value becomes a summary with one sample per zone).
    for (unsigned n = 0; n < physMem_.numNodes(); ++n) {
        const Zone &zone = physMem_.zone(n);
        {
            obs::MetricSink::Scope s(sink, "buddy");
            zone.buddy().collectMetrics(sink);
        }
        {
            obs::MetricSink::Scope s(sink, "contig_map");
            zone.contigMap().collectMetrics(sink);
        }
    }

    {
        obs::MetricSink::Scope s(sink, "policy");
        policy_->collectMetrics(sink);
        policy_->collectFailMetrics(sink);
    }

    if (reclaim_) {
        obs::MetricSink::Scope s(sink, "reclaim");
        reclaim_->collectMetrics(sink);
    }
}

Kernel::~Kernel()
{
    // Destroy processes before the kernel pool and physical memory:
    // their page-table destructors return node frames via
    // freeKernelFrame().
    processes_.clear();
}

Process &
Kernel::createProcess(const std::string &name, NodeId home_node)
{
    contig_assert(home_node < physMem_.numNodes(), "bad home node");
    processes_.push_back(
        std::make_unique<Process>(*this, nextPid_++, name, home_node));
    return *processes_.back();
}

void
Kernel::exitProcess(Process &proc)
{
    // Tear down every VMA (policy hook + page release).
    std::vector<Vma *> vmas;
    proc.addressSpace().forEachVma([&](Vma &vma) { vmas.push_back(&vma); });
    for (Vma *vma : vmas)
        munmap(proc, *vma);

    auto it = std::find_if(processes_.begin(), processes_.end(),
                           [&](const auto &p) { return p.get() == &proc; });
    contig_assert(it != processes_.end(), "exit of unknown process");
    processes_.erase(it);
}

Process *
Kernel::findProcess(std::uint32_t pid)
{
    for (auto &p : processes_)
        if (p->pid() == pid)
            return p.get();
    return nullptr;
}

File &
Kernel::createFile(std::uint64_t size_pages)
{
    return pageCache_.createFile(size_pages);
}

void
Kernel::dropCaches()
{
    pageCache_.dropCaches(*this);
}

void
Kernel::readFile(File &file, std::uint64_t page_start,
                 std::uint64_t n_pages)
{
    engine_->readFile(file, page_start, n_pages);
}

Vma &
Kernel::mmapAnon(Process &proc, std::uint64_t bytes)
{
    Vma &vma = proc.addressSpace().mmap(bytes, VmaKind::Anon);
    policy_->onMmap(*this, proc, vma);
    return vma;
}

Vma &
Kernel::mmapFile(Process &proc, std::uint32_t file_id, std::uint64_t bytes,
                 std::uint64_t file_offset_pages)
{
    Vma &vma = proc.addressSpace().mmap(bytes, VmaKind::File, std::nullopt,
                                        file_id, file_offset_pages);
    policy_->onMmap(*this, proc, vma);
    return vma;
}

void
Kernel::unmapVmaPages(Process &proc, Vma &vma)
{
    PageTable &pt = proc.pageTable();
    const Vpn end = vma.start().pageNumber() + vma.pages();

    // Unmap leaf by leaf in address order, each found by a fresh
    // descent: a leaf list collected up front would be as large as
    // the mapping (megabytes for a big VMA).
    Vpn v = pt.findMappedIn(vma.start().pageNumber(), end);
    while (v < end) {
        const unsigned order = pt.lookup(v)->order;
        const std::uint64_t n = pagesInOrder(order);
        const Vpn base = v & ~(n - 1);
        unmapLeaf(pt, base, order);
        v = pt.findMappedIn(base + n, end);
    }
}

void
Kernel::munmap(Process &proc, Vma &vma)
{
    policy_->onMunmap(*this, proc, vma);
    unmapVmaPages(proc, vma);
    if (reclaim_) {
        reclaim_->dropVmaRange(proc.pid(), vma.start().pageNumber(),
                               vma.pages());
    }
    proc.addressSpace().munmap(vma);
}

void
Kernel::claimFrames(Pfn pfn, unsigned order, FrameOwner kind,
                    std::uint32_t owner_id, Addr owner_vaddr)
{
    contig_assert(isAligned(pfn, pagesInOrder(order)),
                  "claim of unaligned block at pfn %llu",
                  static_cast<unsigned long long>(pfn));
    Frame &f = physMem_.frame(pfn);
    f.ownerKind = kind;
    f.ownerId = owner_id;
    f.ownerVaddr = owner_vaddr;
    f.refCount = 1;
    f.mapCount = 0;
    f.claimOrder = static_cast<std::uint8_t>(order);
    if (reclaim_)
        reclaim_->onClaim(pfn, order, kind);
    if (backingHook)
        backingHook(pfn, order);
}

Pfn
Kernel::claimHead(Pfn pfn) const
{
    for (unsigned o = 0; o <= cfg_.phys.zone.maxOrder; ++o) {
        const Pfn cand = alignDown(pfn, pagesInOrder(o));
        const Frame &f = physMem_.frame(cand);
        if (f.refCount != 0 && pfn < cand + pagesInOrder(f.claimOrder))
            return cand;
    }
    return kInvalidPfn;
}

void
Kernel::getFrame(Pfn pfn)
{
    ++physMem_.frame(pfn).refCount;
}

void
Kernel::putFrame(Pfn pfn, unsigned order)
{
    Frame &f = physMem_.frame(pfn);
    contig_assert(f.refCount > 0, "putFrame on unreferenced frame");
    if (--f.refCount == 0) {
        contig_assert(f.mapCount == 0, "freeing mapped pfn %llu",
                      static_cast<unsigned long long>(pfn));
        if (reclaim_)
            reclaim_->onFree(pfn);
        // Clear the head's claim state, second-chance bit included: no
        // stale head may survive for claimHead() to find.
        f.claimOrder = 0;
        f.ownerKind = FrameOwner::None;
        f.ownerId = 0;
        f.ownerVaddr = 0;
        f.referenced = false;
        physMem_.free(pfn, order);
    }
}

void
Kernel::mapLeaf(PageTable &pt, Vpn vpn, Pfn pfn, unsigned order,
                bool writable, bool cow, PageTable::RunMapper *mapper)
{
    if (mapper && order == 0)
        mapper->map(vpn, pfn, writable, cow);
    else
        pt.map(vpn, pfn, order, writable, cow);
    ++physMem_.frame(pfn).mapCount;
}

void
Kernel::unmapLeaf(PageTable &pt, Vpn vpn, unsigned order)
{
    const Pfn pfn = pt.unmap(vpn, order).pfn;
    --physMem_.frame(pfn).mapCount;
    putFrame(pfn, order);
}

void
Kernel::splitClaim(PageTable &pt, Vpn vpn, Pfn head, unsigned order)
{
    Frame &h = physMem_.frame(head);
    const unsigned from = h.claimOrder;
    contig_assert(h.refCount == 1 && h.mapCount <= 1 && order <= from,
                  "split of a shared block at pfn %llu",
                  static_cast<unsigned long long>(head));
    bool writable = true;
    if (h.mapCount) {
        writable = pt.unmap(vpn, from).writable;
        h.mapCount = 0;
    }
    // The only loop over the frames of a claimed block.
    const Frame claim = h;
    const std::uint64_t step = pagesInOrder(order);
    PageTable::RunMapper mapper(pt);
    for (std::uint64_t off = 0; off < pagesInOrder(from); off += step) {
        Frame &f = physMem_.frame(head + off);
        f.ownerKind = claim.ownerKind;
        f.ownerId = claim.ownerId;
        f.ownerVaddr = claim.ownerVaddr + off * kPageSize;
        f.refCount = 1;
        f.mapCount = 0;
        f.claimOrder = static_cast<std::uint8_t>(order);
        f.referenced = false;
        mapLeaf(pt, vpn + off, head + off, order, writable, false, &mapper);
    }
}

void
Kernel::swapOwners(Pfn a, Pfn b)
{
    Frame &fa = physMem_.frame(a);
    Frame &fb = physMem_.frame(b);
    std::swap(fa.ownerKind, fb.ownerKind);
    std::swap(fa.ownerId, fb.ownerId);
    std::swap(fa.ownerVaddr, fb.ownerVaddr);
}

bool
Kernel::refillPool(NodeId node)
{
    if (auto blk = physMem_.alloc(kKernelPoolOrder, node)) {
        claimFrames(*blk, kKernelPoolOrder, FrameOwner::PageTable,
                    kNoOwner, 0);
        const std::uint64_t n = pagesInOrder(kKernelPoolOrder);
        kernelPoolPages_ += n;
        // Hand out ascending: push descending.
        for (std::uint64_t i = n; i > 0; --i)
            pool_.push_back(*blk + i - 1);
        return true;
    }
    if (auto single = physMem_.alloc(0, node)) {
        // Memory too fragmented for a chunk: fall back to one page.
        claimFrames(*single, 0, FrameOwner::PageTable, kNoOwner, 0);
        kernelPoolPages_ += 1;
        pool_.push_back(*single);
        return true;
    }
    return false;
}

Pfn
Kernel::allocKernelFrame(NodeId node)
{
    for (int attempt = 0; attempt < 4; ++attempt) {
        if (!pool_.empty() || refillPool(node)) {
            Pfn pfn = pool_.back();
            pool_.pop_back();
            return pfn;
        }
        // Page-table allocations have no failure path of their own, so
        // under overcommit the empty pool escalates to direct reclaim,
        // which frees data pages for the next refill (its unmaps free
        // no page-table node).
        if (!reclaim_ ||
            reclaim_->directReclaim(node,
                                    pagesInOrder(kKernelPoolOrder))
                    .freed == 0) {
            break;
        }
    }
    fatal("out of memory allocating a kernel (page-table) frame");
}

void
Kernel::freeKernelFrame(Pfn pfn)
{
    // Node frames return to the pool, not to the buddy allocator —
    // matching the sticky behaviour of per-CPU lists.
    pool_.push_back(pfn);
}

void
Kernel::touch(Process &proc, Gva gva, Access access)
{
    engine_->touch(proc, gva, access);
}

void
Kernel::forkInto(Process &parent, Process &child)
{
    // Clone anonymous VMAs COW-style.
    parent.addressSpace().forEachVma([&](Vma &pvma) {
        if (pvma.kind() != VmaKind::Anon)
            return;
        Vma &cvma = child.addressSpace().mmap(
            pvma.bytes(), VmaKind::Anon, pvma.start());
        engine_->shareCowRange(parent, child, pvma, cvma);
    });
}

std::string
Kernel::audit() const
{
    using ull = unsigned long long;
    std::string err;

    // Page tables: every frame a leaf maps is allocated, and each leaf
    // counts once against the descriptor of the block it maps.
    std::unordered_map<Pfn, std::uint32_t> leaves;
    for (const auto &proc : processes_) {
        const AddressSpace &as = proc->addressSpace();
        proc->pageTable().forEachLeaf([&](Vpn vpn, const Mapping &m) {
            if (!err.empty())
                return;
            for (std::uint64_t i = 0; i < pagesInOrder(m.order); ++i) {
                if (physMem_.isFreePage(m.pfn + i)) {
                    err = csprintf("pid %u vpn %#llx maps free pfn %llu",
                                   proc->pid(), ull{vpn},
                                   ull{m.pfn + i});
                    return;
                }
            }
            ++leaves[m.pfn];

            // Owner triples are exact for every non-COW leaf; a COW
            // leaf may still name the process it was forked from.
            const Frame &f = physMem_.frame(m.pfn);
            const Vma *vma = as.findVma(Gva{vpn << kPageShift});
            if (!vma) {
                err = csprintf("pid %u vpn %#llx: leaf outside any VMA",
                               proc->pid(), ull{vpn});
            } else if (vma->kind() == VmaKind::File) {
                const std::uint64_t page = vma->filePage(vpn);
                if (f.ownerKind != FrameOwner::PageCache ||
                    f.ownerId != vma->fileId() ||
                    f.ownerVaddr != page * kPageSize) {
                    err = csprintf("pid %u vpn %#llx: file leaf pfn %llu "
                                   "is not page %llu of file %u",
                                   proc->pid(), ull{vpn}, ull{m.pfn},
                                   ull{page}, vma->fileId());
                }
            } else if (!m.cow && (f.ownerKind != FrameOwner::Anon ||
                                  f.ownerId != proc->pid() ||
                                  f.ownerVaddr != vpn << kPageShift)) {
                err = csprintf("pid %u vpn %#llx: anon leaf pfn %llu names "
                               "owner (%d, %u, %#llx)",
                               proc->pid(), ull{vpn}, ull{m.pfn},
                               int(f.ownerKind), f.ownerId,
                               ull{f.ownerVaddr});
            }
        });
        if (!err.empty())
            return err;
    }
    for (const auto &[head, maps] : leaves) {
        const Frame &f = physMem_.frame(head);
        // The page cache holds one reference of its own.
        const std::uint32_t cache_ref =
            f.ownerKind == FrameOwner::PageCache ? 1 : 0;
        if (f.mapCount != maps || f.refCount != maps + cache_ref) {
            return csprintf("pfn %llu: %u leaves, mapCount %u, refCount %u",
                            ull{head}, maps, f.mapCount, f.refCount);
        }
    }

    // Page cache: every cached page is an allocated, exactly owned
    // block holding the cache's reference plus one per mapping.
    for (std::uint32_t id = 0; id < pageCache_.fileCount(); ++id) {
        const File &file = pageCache_.file(id);
        for (std::uint64_t p = 0; p < file.sizePages(); ++p) {
            if (!file.isCached(p))
                continue;
            const Pfn pfn = file.frameFor(p);
            const Frame &f = physMem_.frame(pfn);
            if (physMem_.isFreePage(pfn) ||
                f.ownerKind != FrameOwner::PageCache || f.ownerId != id ||
                f.ownerVaddr != p * kPageSize ||
                f.refCount != f.mapCount + 1) {
                return csprintf("file %u page %llu: bad cache frame %llu",
                                id, ull{p}, ull{pfn});
            }
        }
    }

    // Zones: the buddy's free count and its occupancy agree, and the
    // free lists and the contiguity map are self-consistent.
    for (unsigned n = 0; n < physMem_.numNodes(); ++n) {
        const Zone &zone = physMem_.zone(n);
        const BuddyAllocator &buddy = zone.buddy();
        std::uint64_t in_use = 0;
        for (Pfn p = zone.basePfn(); p < zone.basePfn() + zone.numFrames();
             ++p) {
            in_use += !buddy.isFreePage(p);
        }
        if (buddy.freePages() + in_use != zone.numFrames()) {
            return csprintf("zone %u: %llu free + %llu in use != %llu", n,
                            ull{buddy.freePages()}, ull{in_use},
                            ull{zone.numFrames()});
        }
        if (!buddy.checkInvariants())
            return csprintf("zone %u: buddy invariants", n);
        if (!zone.contigMap().checkInvariants())
            return csprintf("zone %u: contiguity-map invariants", n);
    }

    if (!reclaim_)
        return "";

    // LRU lists hold only claimed anon and page-cache block heads.
    for (unsigned n = 0; n < physMem_.numNodes(); ++n) {
        const Zone &zone = physMem_.zone(n);
        for (Frame::LruList list :
             {Frame::LruList::Inactive, Frame::LruList::Active}) {
            std::uint64_t pages = 0;
            zone.forEachLru(list, [&](Pfn head, unsigned order) {
                const Frame &f = physMem_.frame(head);
                pages += pagesInOrder(order);
                if (err.empty() &&
                    (physMem_.isFreePage(head) || f.refCount == 0 ||
                     (f.ownerKind != FrameOwner::Anon &&
                      f.ownerKind != FrameOwner::PageCache))) {
                    err = csprintf("zone %u: LRU lists unclaimed pfn %llu",
                                   n, ull{head});
                }
            });
            if (err.empty() && pages != zone.lruPages(list))
                err = csprintf("zone %u: LRU page count drifted", n);
            if (!err.empty())
                return err;
        }
    }

    // A swapped-out page is not mapped.
    std::uint64_t slots = 0;
    reclaim_->forEachSwapSlot([&](std::uint32_t pid, Vpn vpn) {
        ++slots;
        for (const auto &proc : processes_) {
            if (proc->pid() != pid || !err.empty())
                continue;
            if (auto m = proc->pageTable().lookup(vpn); m && m->valid()) {
                err = csprintf("pid %u vpn %#llx is both swapped and "
                               "mapped", pid, ull{vpn});
            }
        }
    });
    if (err.empty() && slots != reclaim_->swappedPages())
        err = csprintf("%llu swap slots, %llu swapped pages", ull{slots},
                       ull{reclaim_->swappedPages()});
    return err;
}

} // namespace contig
