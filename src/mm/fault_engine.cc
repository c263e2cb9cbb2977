#include "mm/fault_engine.hh"

#include <algorithm>

#include "base/align.hh"
#include "base/logging.hh"
#include "mm/kernel.hh"
#include "mm/page_cache.hh"
#include "obs/attribution.hh"
#include "obs/observatory.hh"

namespace contig
{

FaultEngine::FaultEngine(Kernel &kernel)
    : kernel_(kernel), cfg_(kernel.config()),
      faultPhase_(obs::Phase::bind(obs::MetricRegistry::global(),
                                   cfg_.metricsPrefix + ".fault")),
      daemonPhase_(obs::Phase::bind(obs::MetricRegistry::global(),
                                    cfg_.metricsPrefix + ".daemon")),
      placePhase_(obs::Phase::bind(obs::MetricRegistry::global(),
                                   cfg_.metricsPrefix + ".fault.place")),
      installPhase_(obs::Phase::bind(obs::MetricRegistry::global(),
                                     cfg_.metricsPrefix + ".fault.install")),
      fillPhase_(obs::Phase::bind(obs::MetricRegistry::global(),
                                  cfg_.metricsPrefix + ".fault.fill"))
{
    if (obs::AttribRegistry::enabled())
        attrib_ = std::make_unique<obs::FaultAttribution>();
}

FaultEngine::~FaultEngine()
{
    if (attrib_)
        obs::AttribRegistry::global().absorbFault(*attrib_);
}

// --- single-fault path ---------------------------------------------------

void
FaultEngine::touch(Process &proc, Gva gva, Access access)
{
    // Watermark probe at fault entry: kswapd's balancing runs
    // synchronously here.
    if (ReclaimEngine *rec = kernel_.reclaim())
        rec->checkWatermarks(proc.homeNode());
    touchOne(proc, gva, access);
}

void
FaultEngine::touchOne(Process &proc, Gva gva, Access access)
{
    Vma *vma = proc.addressSpace().findVma(gva);
    contig_assert(vma, "touch outside any VMA (gva 0x%llx)",
                  static_cast<unsigned long long>(gva.value));

    const Vpn vpn = gva.pageNumber();
    auto m = proc.pageTable().lookup(vpn);
    if (m && m->valid()) {
        if (ReclaimEngine *rec = kernel_.reclaim())
            rec->noteReferenced(m->pfn); // second chance for the leaf
        if (access == Access::Write && m->cow) {
            obs::ScopedPhase timer(faultPhase_);
            cowFault(proc, *vma, vpn, *m);
        }
        proc.noteTouched(*vma, vpn);
        return;
    }

    {
        obs::ScopedPhase timer(faultPhase_);
        if (vma->kind() == VmaKind::File)
            fileFault(proc, *vma, vpn);
        else
            anonFault(proc, *vma, vpn);
    }
    proc.noteTouched(*vma, vpn);
}

bool
FaultEngine::hugeFaultAllowed(const Process &proc, const Vma &vma,
                              Vpn vpn) const
{
    if (!cfg_.thpEnabled || !kernel_.policy().allowsHugeFaults() ||
        !vma.coversAligned(vpn, kHugeOrder)) {
        return false;
    }
    // THP faults require the whole aligned huge range unmapped.
    const Vpn huge_base = vpn & ~(pagesInOrder(kHugeOrder) - 1);
    const Vpn huge_end = huge_base + pagesInOrder(kHugeOrder);
    return proc.pageTable().findMappedIn(huge_base, huge_end) == huge_end;
}

void
FaultEngine::classifyAnon(Process &proc, Vma &vma, FaultContext &ctx) const
{
    ctx.order = hugeFaultAllowed(proc, vma, ctx.vpn) ? kHugeOrder : 0;
    ctx.base = ctx.vpn & ~(pagesInOrder(ctx.order) - 1);
}

AllocResult
FaultEngine::dropCachesAndRetry(Process &proc, Vma &vma, Vpn base,
                                unsigned order)
{
    // Direct reclaim: evict clean page-cache pages and retry.
    kernel_.dropCaches();
    kernel_.counters().inc("reclaim.direct");
    return kernel_.policy().allocate(kernel_, proc, vma, base, order);
}

void
FaultEngine::placeAnon(Process &proc, Vma &vma, FaultContext &ctx)
{
    AllocationPolicy &policy = kernel_.policy();
    ReclaimEngine *rec = kernel_.reclaim();
    ctx.alloc = policy.allocate(kernel_, proc, vma, ctx.base, ctx.order);
    if (!ctx.alloc.ok() && ctx.order == kHugeOrder) {
        if (!rec)
            ctx.alloc = dropCachesAndRetry(proc, vma, ctx.base, ctx.order);
        if (!ctx.alloc.ok()) {
            // A huge-order shortfall is a defragmentation problem, not
            // a pressure problem: ask for background reclaim and
            // demote immediately rather than stall this fault on
            // direct reclaim of 512 pages (the THP defrag=madvise
            // stance).
            if (rec)
                rec->noteKswapdWake();
            ctx.fallback = ctx.alloc.fail == AllocFail::None
                               ? AllocFail::NoHugeBlock
                               : ctx.alloc.fail;
            policy.noteAllocFail(ctx.fallback);
            ctx.order = 0;
            ctx.base = ctx.vpn;
            ctx.alloc =
                policy.allocate(kernel_, proc, vma, ctx.base, ctx.order);
        }
    }
    if (!ctx.alloc.ok())
        recoverBaseAlloc(proc, vma, ctx);
}

void
FaultEngine::recoverBaseAlloc(Process &proc, Vma &vma, FaultContext &ctx)
{
    if (kernel_.reclaim())
        reclaimRetry(proc, vma, ctx.base, 0, ctx.alloc);
    else
        ctx.alloc = dropCachesAndRetry(proc, vma, ctx.base, 0);
    if (!ctx.alloc.ok()) {
        kernel_.policy().noteAllocFail(AllocFail::Oom);
        fatal("out of memory: anon fault in %s (vma %u)",
              proc.name().c_str(), vma.id());
    }
}

void
FaultEngine::reclaimRetry(Process &proc, Vma &vma, Vpn base, unsigned order,
                          AllocResult &res)
{
    // The order-0 slow path: background reclaim is requested, then
    // up to four direct-reclaim rounds satisfy the fault
    // synchronously; a round that frees nothing is final. The
    // "reclaim.direct" counter keeps its pre-reclaim meaning: one
    // bump per slow-path entry.
    ReclaimEngine &rec = *kernel_.reclaim();
    rec.noteKswapdWake();
    kernel_.counters().inc("reclaim.direct");
    AllocationPolicy &policy = kernel_.policy();
    Cycles stall = 0;
    const std::uint64_t want = pagesInOrder(order);
    for (int round = 0; round < 4 && !res.ok(); ++round) {
        const ReclaimEngine::Progress p =
            rec.directReclaim(proc.homeNode(), want);
        stall += p.cycles;
        if (p.freed == 0)
            break; // everything left is pinned
        res = policy.allocate(kernel_, proc, vma, base, order);
    }
    if (!res.ok()) {
        kernel_.dropCaches();
        res = policy.allocate(kernel_, proc, vma, base, order);
    }
    if (res.ok())
        res.placementCycles += stall;
}

void
FaultEngine::installAnon(Process &proc, Vma &vma, FaultContext &ctx,
                         PageTable::RunMapper *mapper)
{
    kernel_.claimFrames(ctx.alloc.pfn, ctx.order, FrameOwner::Anon,
                        proc.pid(), ctx.base << kPageShift);
    kernel_.mapLeaf(proc.pageTable(), ctx.base, ctx.alloc.pfn, ctx.order,
                    true, false, mapper);
    const std::uint64_t n = pagesInOrder(ctx.order);
    vma.allocatedPages += n;

    ctx.cycles = cfg_.faultBaseCycles + cfg_.zeroCyclesPerPage * n +
                 ctx.alloc.placementCycles;
    if (ReclaimEngine *rec = kernel_.reclaim())
        ctx.cycles += rec->chargeSwapIn(proc.pid(), ctx.base, ctx.order);
    kernel_.policy().onMapped(kernel_, proc, vma, ctx.base, ctx.alloc.pfn,
                              ctx.order);
    finishFault(ctx.order, ctx.cycles, false, false, ctx.fallback);
}

void
FaultEngine::installFile(Process &proc, Vma &vma, Vpn vpn, Pfn pfn,
                         PageTable::RunMapper *mapper)
{
    // File mappings are shared read-only in this model.
    kernel_.mapLeaf(proc.pageTable(), vpn, pfn, 0, false, false, mapper);
    kernel_.getFrame(pfn);
    vma.allocatedPages += 1;

    ++stats_.fileFaults;
    finishFault(0, cfg_.faultBaseCycles, false, true);
}

void
FaultEngine::anonFault(Process &proc, Vma &vma, Vpn vpn)
{
    FaultContext ctx;
    ctx.vpn = vpn;
    classifyAnon(proc, vma, ctx);
    placeAnon(proc, vma, ctx);
    installAnon(proc, vma, ctx);
}

void
FaultEngine::cowFault(Process &proc, Vma &vma, Vpn vpn, const Mapping &m)
{
    const unsigned order = m.order;
    const Vpn base = vpn & ~(pagesInOrder(order) - 1);

    AllocResult res =
        kernel_.policy().allocate(kernel_, proc, vma, base, order);
    if (!res.ok() && kernel_.reclaim() && order == 0)
        reclaimRetry(proc, vma, base, order, res);
    if (!res.ok()) {
        kernel_.policy().noteAllocFail(AllocFail::Oom);
        fatal("out of memory: COW fault in %s", proc.name().c_str());
    }

    kernel_.claimFrames(res.pfn, order, FrameOwner::Anon, proc.pid(),
                        base << kPageShift);
    kernel_.unmapLeaf(proc.pageTable(), base, order);
    kernel_.mapLeaf(proc.pageTable(), base, res.pfn, order, true, false);

    const std::uint64_t n = pagesInOrder(order);
    const Cycles cycles = cfg_.faultBaseCycles +
                          cfg_.copyCyclesPerPage * n + res.placementCycles;
    ++stats_.cowFaults;
    kernel_.policy().onMapped(kernel_, proc, vma, base, res.pfn, order);
    finishFault(order, cycles, true, false);
}

void
FaultEngine::fileFault(Process &proc, Vma &vma, Vpn vpn)
{
    File &file = kernel_.pageCache().file(vma.fileId());
    const std::uint64_t file_page = vma.filePage(vpn);
    contig_assert(file_page < file.sizePages(),
                  "file fault beyond EOF (page %llu)",
                  static_cast<unsigned long long>(file_page));

    const Pfn pfn = ensureFileCached(file, file_page);
    if (pfn == kInvalidPfn)
        fatal("out of memory: page-cache fault in %s", proc.name().c_str());
    installFile(proc, vma, vpn, pfn);
}

void
FaultEngine::finishFault(unsigned order, Cycles cycles, bool cow, bool file,
                         AllocFail fallback)
{
    ++stats_.faults;
    if (!cow && !file) {
        if (order == kHugeOrder)
            ++stats_.hugeFaults;
        else
            ++stats_.baseFaults;
    }
    stats_.totalCycles += cycles;
    stats_.latencyUs.add(static_cast<double>(cycles) / cfg_.cyclesPerUs);

    if (attrib_) {
        const unsigned kind = file ? static_cast<unsigned>(FaultKind::File)
                              : cow ? static_cast<unsigned>(FaultKind::Cow)
                                    : static_cast<unsigned>(FaultKind::Anon);
        attrib_->record(kind, order == kHugeOrder,
                        static_cast<unsigned>(fallback), cycles);
    }

    const std::uint64_t c = ++clock_;

    // Observatory sampling happens before the policy tick below, so a
    // capture at fault N sees the pre-tick state (the cadence the
    // coverage timelines were defined with).
    if (sampler_)
        sampler_->onFaultTick();

    if (c % cfg_.tickPeriodFaults == 0) {
        obs::ScopedPhase timer(daemonPhase_);
        kernel_.policy().onTick(kernel_);
    }
}

// --- span paths ----------------------------------------------------------

std::uint64_t
FaultEngine::tickBudget() const
{
    return cfg_.tickPeriodFaults - (now() % cfg_.tickPeriodFaults);
}

void
FaultEngine::handleRange(const FaultRequest &span, TouchNote note)
{
    if (!span.proc || span.pages == 0)
        return;
    if (ReclaimEngine *rec = kernel_.reclaim())
        rec->checkWatermarks(span.proc->homeNode());
    Process &proc = *span.proc;
    ++batch_.rangeRequests;
    batch_.rangePages += span.pages;

    const Vpn end = span.vpn + span.pages;

    if (note == TouchNote::Origins) {
        // Origin probes: one full touch per potential huge region, so
        // a policy that serves the first probe with a 2 MiB mapping
        // absorbs the whole stride (the nested-backing access shape).
        for (Vpn v = span.vpn; v < end; v += pagesInOrder(kHugeOrder))
            touchOne(proc, Gva{v << kPageShift}, span.access);
    }

    Vpn v = span.vpn;
    Vma *vma = span.vma;
    while (v < end) {
        if (!vma || v < vma->start().pageNumber() ||
            v >= vma->start().pageNumber() + vma->pages()) {
            vma = proc.addressSpace().findVma(Gva{v << kPageShift});
            contig_assert(vma, "touch outside any VMA (gva 0x%llx)",
                          static_cast<unsigned long long>(v << kPageShift));
        }
        const Vpn sub_end =
            std::min(end, vma->start().pageNumber() + vma->pages());
        resolveSpan(proc, *vma, v, sub_end, span.access,
                    note == TouchNote::AllPages);
        v = sub_end;
    }
}

void
FaultEngine::resolveSpan(Process &proc, Vma &vma, Vpn start, Vpn end,
                         Access access, bool note_all)
{
    PageTable &pt = proc.pageTable();
    Vpn v = start;
    while (v < end) {
        const Vpn mapped = pt.findMappedIn(v, end);
        if (v < mapped) {
            // Unmapped gap [v, mapped).
            if (vma.kind() == VmaKind::File) {
                resolveFileGap(proc, vma, v, mapped);
                v = mapped;
            } else {
                v = resolveAnonGap(proc, vma, v, mapped, end, note_all);
            }
            continue;
        }
        // Mapped stretch: resolve COW once per leaf, account touches.
        while (v < end) {
            auto m = pt.lookup(v);
            if (!m)
                break;
            if (ReclaimEngine *rec = kernel_.reclaim())
                rec->noteReferenced(m->pfn);
            const std::uint64_t n = pagesInOrder(m->order);
            const Vpn leaf_end = std::min(end, (v & ~(n - 1)) + n);
            if (access == Access::Write && m->cow) {
                obs::ScopedPhase timer(faultPhase_);
                cowFault(proc, vma, v, *m);
            }
            if (note_all)
                for (Vpn w = v; w < leaf_end; ++w)
                    proc.noteTouched(vma, w);
            v = leaf_end;
        }
    }
}

Vpn
FaultEngine::resolveAnonGap(Process &proc, Vma &vma, Vpn gap_start,
                            Vpn gap_end, Vpn span_end, bool note_all)
{
    PageTable &pt = proc.pageTable();
    const std::uint64_t huge_pages = pagesInOrder(kHugeOrder);
    std::vector<FaultContext> chunk;
    chunk.reserve(std::min<std::uint64_t>(gap_end - gap_start,
                                          cfg_.tickPeriodFaults));

    Vpn v = gap_start;
    while (v < gap_end) {
        // Huge candidate? No queued 4 KiB fault inside the block
        // (queued faults are installs the per-fault path would already
        // have made), then the classify stage's own test.
        const Vpn block = v & ~(huge_pages - 1);
        if ((chunk.empty() || chunk.back().base < block) &&
            hugeFaultAllowed(proc, vma, v)) {
            commitAnonChunk(proc, vma, chunk);
            {
                obs::ScopedPhase timer(faultPhase_);
                anonFault(proc, vma, v);
            }
            // The install may have been demoted to 4 KiB; resume after
            // whatever leaf now covers v.
            auto m = pt.lookup(v);
            const std::uint64_t n = pagesInOrder(m->order);
            const Vpn leaf_end = (v & ~(n - 1)) + n;
            proc.noteTouched(vma, v);
            if (note_all)
                for (Vpn w = v + 1; w < std::min(leaf_end, span_end); ++w)
                    proc.noteTouched(vma, w);
            v = leaf_end;
            continue;
        }
        FaultContext &ctx = chunk.emplace_back();
        ctx.vpn = v;
        ctx.base = v;
        if (chunk.size() >= tickBudget())
            commitAnonChunk(proc, vma, chunk);
        ++v;
    }
    commitAnonChunk(proc, vma, chunk);
    return v;
}

void
FaultEngine::commitAnonChunk(Process &proc, Vma &vma,
                             std::vector<FaultContext> &chunk)
{
    if (chunk.empty())
        return;
    obs::ScopedPhase fault_timer(faultPhase_);
    AllocationPolicy &policy = kernel_.policy();
    PageTable::RunMapper mapper(proc.pageTable());
    ReclaimEngine *rec = kernel_.reclaim();
    // Per-chunk watermark probe: a span can be hundreds of chunks, so
    // checking only at handleRange entry would leave the background
    // reclaimer asleep while the span drains the zone and every
    // shortfall became a direct-reclaim stall.
    if (rec)
        rec->checkWatermarks(proc.homeNode());

    const auto install = [&](FaultContext &ctx) {
        installAnon(proc, vma, ctx, &mapper);
        proc.noteTouched(vma, ctx.base);
    };

    std::size_t i = 0;
    while (i < chunk.size()) {
        std::size_t placed = i;
        {
            obs::ScopedPhase stage(placePhase_);
            for (; placed < chunk.size(); ++placed) {
                FaultContext &ctx = chunk[placed];
                ctx.alloc = policy.allocate(kernel_, proc, vma, ctx.base, 0);
                if (!ctx.alloc.ok())
                    break;
            }
        }
        {
            obs::ScopedPhase stage(installPhase_);
            for (std::size_t j = i; j < placed; ++j)
                install(chunk[j]);
        }
        batch_.batchedFaults += placed - i;
        i = placed;
        if (i < chunk.size()) {
            recoverBaseAlloc(proc, vma, chunk[i]);
            install(chunk[i]);
            ++i;
        }
    }

    ++batch_.chunks;
    batch_.chunkPages.add(chunk.size());
    chunk.clear();
}

void
FaultEngine::resolveFileGap(Process &proc, Vma &vma, Vpn gap_start,
                            Vpn gap_end)
{
    File &file = kernel_.pageCache().file(vma.fileId());
    PageTable::RunMapper mapper(proc.pageTable());
    ReclaimEngine *rec = kernel_.reclaim();

    Vpn v = gap_start;
    while (v < gap_end) {
        const Vpn chunk_end = std::min(gap_end, v + tickBudget());
        if (rec)
            rec->checkWatermarks(proc.homeNode());
        obs::ScopedPhase fault_timer(faultPhase_);
        {
            // Pre-fill the page cache for the whole chunk (readahead
            // windows merge); installs below then never miss.
            obs::ScopedPhase stage(fillPhase_);
            for (Vpn w = v; w < chunk_end; ++w) {
                const std::uint64_t fp = vma.filePage(w);
                contig_assert(fp < file.sizePages(),
                              "file fault beyond EOF (page %llu)",
                              static_cast<unsigned long long>(fp));
                if (ensureFileCached(file, fp) == kInvalidPfn)
                    fatal("out of memory: page-cache fault in %s",
                          proc.name().c_str());
            }
        }
        {
            obs::ScopedPhase stage(installPhase_);
            for (Vpn w = v; w < chunk_end; ++w) {
                installFile(proc, vma, w, file.frameFor(vma.filePage(w)),
                            &mapper);
                proc.noteTouched(vma, w);
            }
        }
        batch_.batchedFaults += chunk_end - v;
        ++batch_.chunks;
        batch_.chunkPages.add(chunk_end - v);
        v = chunk_end;
    }
}

// --- page-cache population ------------------------------------------------

Pfn
FaultEngine::ensureFileCached(File &file, std::uint64_t file_page)
{
    if (file.isCached(file_page))
        return file.frameFor(file_page);
    const std::uint64_t end =
        std::min(file.sizePages(), file_page + kReadaheadPages);
    fillFileSpan(file, file_page, end);
    return file.isCached(file_page) ? file.frameFor(file_page)
                                    : kInvalidPfn;
}

void
FaultEngine::fillFileSpan(File &file, std::uint64_t begin,
                          std::uint64_t end)
{
    AllocationPolicy &policy = kernel_.policy();
    // While this scope is live, any reclaim the fill triggers skips
    // page-cache victims — it could otherwise evict the pages this
    // very run just installed.
    ReclaimEngine::PageCacheFillScope fill_scope(kernel_.reclaim());
    std::uint64_t filled = 0;
    std::vector<AllocResult> results;

    std::uint64_t p = begin;
    while (p < end) {
        if (file.isCached(p)) {
            ++p;
            continue;
        }
        // Maximal uncached run starting at p.
        std::uint64_t run_end = p + 1;
        while (run_end < end && !file.isCached(run_end))
            ++run_end;
        const std::size_t n = run_end - p;
        results.resize(n);

        // Place pages [off, off + count) of the run, ascending,
        // stopping at the first failure; returns how many were placed.
        const auto allocRun = [&](std::size_t off, std::size_t count) {
            std::size_t g = 0;
            while (g < count) {
                results[off + g] =
                    policy.allocateFilePage(kernel_, file, p + off + g);
                if (!results[off + g].ok())
                    break;
                ++g;
            }
            return g;
        };
        std::size_t got = allocRun(0, n);
        if (got < n) {
            if (ReclaimEngine *reng = kernel_.reclaim()) {
                // Readahead under pressure: reclaim (anon victims
                // only, per the fill scope above) and retry the
                // shortfall once before trimming the window.
                reng->noteKswapdWake();
                if (reng->directReclaim(0, n - got).freed)
                    got += allocRun(got, n - got);
            }
        }
        for (std::size_t i = 0; i < got; ++i) {
            kernel_.claimFrames(results[i].pfn, 0,
                                FrameOwner::PageCache, file.id(),
                                (p + i) * kPageSize);
            file.install(p + i, results[i].pfn);
        }
        filled += got;
        if (got < n) {
            policy.noteAllocFail(AllocFail::Oom);
            break;
        }
        p = run_end;
    }

    if (filled) {
        kernel_.counters().inc("pagecache.filled", filled);
        batch_.readaheadPages.add(filled);
    }
}

void
FaultEngine::readFile(File &file, std::uint64_t page_start,
                      std::uint64_t n_pages)
{
    contig_assert(page_start + n_pages <= file.sizePages(),
                  "readFile beyond EOF");
    if (ReclaimEngine *rec = kernel_.reclaim())
        rec->checkWatermarks(0); // file fills allocate node-0 first
    const std::uint64_t req_end = page_start + n_pages;

    std::uint64_t p = page_start;
    while (p < req_end) {
        if (file.isCached(p)) {
            ++p;
            continue;
        }
        // Union of the readahead windows every uncached requested page
        // would open: one fill replaces up to 16 window fills.
        std::uint64_t fe = std::min(file.sizePages(),
                                    p + kReadaheadPages);
        for (std::uint64_t q = p + 1; q < req_end; ++q) {
            if (q < fe || file.isCached(q))
                continue;
            fe = std::min(file.sizePages(), q + kReadaheadPages);
        }
        {
            obs::ScopedPhase stage(fillPhase_);
            fillFileSpan(file, p, fe);
        }
        for (std::uint64_t q = p; q < std::min(fe, req_end); ++q)
            if (!file.isCached(q))
                fatal("out of memory reading file %u", file.id());
        p = fe;
    }
}

// --- fork / pre-population services --------------------------------------

void
FaultEngine::shareCowRange(Process &parent, Process &child, Vma &pvma,
                           Vma &cvma)
{
    PageTable &ppt = parent.pageTable();
    PageTable &cpt = child.pageTable();
    const Vpn start = pvma.start().pageNumber();
    const Vpn end = start + pvma.pages();

    PageTable::RunMapper mapper(cpt);
    ppt.forEachLeafIn(start, end, [&](Vpn vpn, const Mapping &m) {
        // Write-protect the parent's leaf and share it COW. The
        // in-place protection flip does not disturb the traversal.
        ppt.setWritable(vpn, false, true);
        kernel_.mapLeaf(cpt, vpn, m.pfn, m.order, false, true, &mapper);
        kernel_.getFrame(m.pfn);
        cvma.allocatedPages += pagesInOrder(m.order);
    });
}

void
FaultEngine::installPrepared(Process &proc, Vma &vma, Vpn vpn, Pfn pfn,
                             unsigned order)
{
    PageTable &pt = proc.pageTable();
    PageTable::RunMapper mapper(pt);
    const std::uint64_t n = pagesInOrder(order);
    const std::uint64_t huge_pages = pagesInOrder(kHugeOrder);

    // Each leaf is claimed at its own mapping order so teardown's
    // per-leaf putFrame() finds a reference head on every leaf.
    std::uint64_t i = 0;
    while (i < n) {
        const Vpn v = vpn + i;
        const Pfn f = pfn + i;
        const bool huge = n - i >= huge_pages && isAligned(v, huge_pages) &&
                          isAligned(f, huge_pages);
        const unsigned order_i = huge ? kHugeOrder : 0;
        kernel_.claimFrames(f, order_i, FrameOwner::Anon, proc.pid(),
                            v << kPageShift);
        kernel_.mapLeaf(pt, v, f, order_i, true, false, &mapper);
        i += pagesInOrder(order_i);
    }
    vma.allocatedPages += n;
}

void
FaultEngine::chargeBulkStall(std::uint64_t pages)
{
    const Cycles cycles =
        cfg_.faultBaseCycles + cfg_.zeroCyclesPerPage * pages;
    stats_.totalCycles += cycles;
    stats_.latencyUs.add(static_cast<double>(cycles) / cfg_.cyclesPerUs);
    ++stats_.faults;
    ++clock_;
}

// --- observation ----------------------------------------------------------

void
FaultEngine::collectMetrics(obs::MetricSink &sink) const
{
    obs::MetricSink::Scope s(sink, "fault.batch");
    sink.counter("range_requests", batch_.rangeRequests);
    sink.counter("range_pages", batch_.rangePages);
    sink.counter("chunks", batch_.chunks);
    sink.counter("batched_faults", batch_.batchedFaults);
    sink.histogram("chunk_pages", batch_.chunkPages);
    sink.histogram("readahead_pages", batch_.readaheadPages);
}

} // namespace contig
