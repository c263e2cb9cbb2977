#include "mm/kernel.hh"

#include <algorithm>

#include "base/align.hh"
#include "base/logging.hh"
#include "obs/observatory.hh"
#include "obs/trace.hh"

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
    ri.note(p + "fault_batching", cfg_.faultBatching);
    ri.note(p + "obs_sample_period_faults", cfg_.obsSamplePeriodFaults);
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
        // quantile() sorts lazily; work on a copy to stay const.
        Percentiles lat = fs.latencyUs;
        sink.gauge("fault_latency_us.p50", lat.quantile(0.50));
        sink.gauge("fault_latency_us.p95", lat.quantile(0.95));
        sink.gauge("fault_latency_us.p99", lat.quantile(0.99));
    }
    engine_->collectMetrics(sink);
    sink.gauge("kernel_pool_pages",
               static_cast<double>(kernelPoolPages()));
    sink.gauge("processes", static_cast<double>(processes_.size()));

    for (const auto &[name, v] : counters_.all())
        sink.counter(name, v);

    // Per-zone allocator state merges into one "buddy." / one
    // "contig_map." group (MetricSample::mergeFrom adds by name).
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
        const Mapping m = *pt.lookup(v);
        const std::uint64_t n = pagesInOrder(m.order);
        const Vpn base = v & ~(n - 1);
        pt.unmap(base, m.order);
        for (std::uint64_t i = 0; i < n; ++i)
            --physMem_.frame(m.pfn + i).mapCount;
        putFrame(m.pfn, m.order);
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
    const std::uint64_t n = pagesInOrder(order);
    for (std::uint64_t i = 0; i < n; ++i) {
        Frame &f = physMem_.frame(pfn + i);
        f.ownerKind = kind;
        f.ownerId = owner_id;
        f.ownerVaddr = owner_vaddr + i * kPageSize;
        f.refCount = 0;
        f.mapCount = 0;
    }
    physMem_.frame(pfn).refCount = 1;
    if (reclaim_)
        reclaim_->onClaim(pfn, order, kind);
    CONTIG_TRACE(obs::TraceEventKind::Alloc, pfn, order, owner_id);
    if (backingHook)
        backingHook(pfn, order);
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
        const std::uint64_t n = pagesInOrder(order);
        for (std::uint64_t i = 0; i < n; ++i) {
            Frame &g = physMem_.frame(pfn + i);
            g.ownerKind = FrameOwner::None;
            g.ownerId = kNoOwner;
            g.ownerVaddr = 0;
        }
        if (reclaim_)
            reclaim_->onFree(pfn);
        physMem_.free(pfn, order);
    }
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
        // under overcommit the empty pool escalates to direct reclaim
        // (whose unmaps may also return page-table nodes to the pool).
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

} // namespace contig
