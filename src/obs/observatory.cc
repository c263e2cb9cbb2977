#include "obs/observatory.hh"

#include <cstdio>

#include "base/json.hh"
#include "base/lock_stats.hh"
#include "base/logging.hh"
#include "mm/kernel.hh"
#include "obs/attribution.hh"
#include "tlb/translation_sim.hh"
#include "virt/vm.hh"

namespace contig
{
namespace obs
{

// --- StateSampler ---------------------------------------------------------

StateSampler::StateSampler(SamplerConfig cfg)
    : cfg_(std::move(cfg)), periodFaults_(cfg_.periodFaults)
{
}

StateSampler::~StateSampler()
{
    detachKernel();
}

void
StateSampler::attachKernel(Kernel &kernel)
{
    contig_assert(!engineAttached_, "sampler already attached");
    kernel_ = &kernel;
    if (kernel.config().obsSamplePeriodFaults != 0)
        periodFaults_ = kernel.config().obsSamplePeriodFaults;
    kernel.faultEngine().setSampler(this);
    engineAttached_ = true;
}

void
StateSampler::detachKernel()
{
    if (engineAttached_ && kernel_) {
        kernel_->faultEngine().setSampler(nullptr);
        engineAttached_ = false;
    }
}

void
StateSampler::addSegProbe(std::string dim, const Process *proc,
                          SegProbe fn, bool track_coverage)
{
    probes_.push_back(
        Probe{std::move(dim), proc, std::move(fn), track_coverage});
}

void
StateSampler::attachVm(const Process &guest_proc,
                       const VirtualMachine &vm)
{
    const Process *proc = &guest_proc;
    addSegProbe(
        "1d", proc, [proc] { return extractSegs(proc->pageTable()); },
        false);
    const VirtualMachine *vmp = &vm;
    addSegProbe(
        "2d", proc, [proc, vmp] { return extract2d(*proc, *vmp); },
        true);
}

void
StateSampler::attachTranslation(const TranslationSim &sim)
{
    xlat_ = &sim;
}

const Snapshot &
StateSampler::sampleNow()
{
    return sampleAt(kernel_ ? kernel_->faultStats().faults : seqNext_);
}

const Snapshot &
StateSampler::sampleAt(std::uint64_t tick)
{
    last_ = Snapshot{};
    capture(last_, tick);
    if (cfg_.keepSnapshots)
        snapshots_.push_back(last_);
    emitTimeline(last_);
    return last_;
}

void
StateSampler::capture(Snapshot &snap, std::uint64_t tick)
{
    snap.seq = seqNext_++;
    snap.tick = tick;

    if (kernel_) {
        const FaultStats &fs = kernel_->faultStats();
        snap.faults = fs.faults;
        snap.hugeFaults = fs.hugeFaults;
        snap.cowFaults = fs.cowFaults;
        snap.fileFaults = fs.fileFaults;

        const PhysicalMemory &pm = kernel_->physMem();
        snap.zones.reserve(pm.numNodes());
        for (unsigned n = 0; n < pm.numNodes(); ++n) {
            const Zone &zone = pm.zone(n);
            ZoneSnap z;
            z.node = n;
            z.freePages = zone.buddy().freePages();
            z.freeBlocks = zone.buddy().freeBlockCounts();
            z.fmfi = zone.buddy().unusableFreeIndex(kHugeOrder);
            z.clusterCount = zone.contigMap().clusterCount();
            if (auto big = zone.contigMap().largest())
                z.largestClusterPages = big->pages;
            z.clusterHist = zone.contigMap().clusterSizeHistogram();
            if (cfg_.captureFreeHist) {
                z.hasFreeHist = true;
                z.freeHist = zone.freeBlockHistogram();
            }
            snap.zones.push_back(std::move(z));
        }
    }

    for (const Probe &probe : probes_) {
        const std::vector<Seg> segs = probe.fn();
        if (probe.trackCoverage) {
            snap.hasCoverage = true;
            snap.coverage = coverage(segs);
        }
        if (probe.proc) {
            std::vector<VmaSpan> spans;
            probe.proc->addressSpace().forEachVma([&](const Vma &vma) {
                spans.push_back(VmaSpan{vma.start().pageNumber(),
                                        vma.start().pageNumber() +
                                            vma.pages(),
                                        vma.id()});
            });
            auto runs = vmaRunStats(segs, spans, probe.proc->pid(),
                                    probe.dim);
            snap.vmaRuns.insert(snap.vmaRuns.end(), runs.begin(),
                                runs.end());
        }
    }

    if (xlat_) {
        const XlatStats &xs = xlat_->stats();
        snap.hasXlat = true;
        snap.xlat.accesses = xs.accesses;
        snap.xlat.l1Hits = xs.l1Hits;
        snap.xlat.l2Hits = xs.l2Hits;
        snap.xlat.walks = xs.walks;
        snap.xlat.walkRefs = xs.walkRefs;
        snap.xlat.walkCycles = xs.walkCycles;
        snap.xlat.exposedCycles = xs.exposedCycles;
        snap.xlat.spotCorrect = xs.spotCorrect;
        snap.xlat.spotMispredicted = xs.spotMispredicted;
        snap.xlat.spotNoPrediction = xs.spotNoPrediction;
        if (const SpotEngine *spot = xlat_->spot()) {
            const SpotStats &ss = spot->stats();
            snap.xlat.spotFills = ss.fills;
            snap.xlat.spotCoverage = ss.coverage();
            snap.xlat.spotAccuracy = ss.accuracy();
        }

        // Attribution drift: per-outcome rollups so timelines show
        // where the translation cycles go as the run evolves (--attrib
        // only).
        if (const XlatAttribution *table = xlat_->attrib()) {
            for (unsigned o = 0; o < kXlatOutcomes; ++o) {
                const CostCell cell = table->outcomeTotal(o);
                if (cell.empty())
                    continue;
                const std::string p =
                    std::string("attrib.") +
                    xlatOutcomeName(static_cast<XlatOutcome>(o)) + ".";
                snap.extras[p + "events"] =
                    static_cast<double>(cell.events);
                snap.extras[p + "walk_cycles"] =
                    static_cast<double>(cell.cycles);
                snap.extras[p + "exposed_cycles"] =
                    static_cast<double>(cell.exposed);
            }
        }
    }

    // Memory-pressure drift: watermark / LRU / swap state as the run
    // evolves. Reclaim kernels only — the keys are absent otherwise,
    // so committed timeline goldens keep their exact shape.
    if (kernel_) {
        if (const ReclaimEngine *rec = kernel_->reclaim()) {
            const ReclaimStats &rs = rec->stats();
            const auto v = [](const std::atomic<std::uint64_t> &a) {
                return static_cast<double>(
                    a.load(std::memory_order_relaxed));
            };
            snap.extras["reclaim.scans"] = v(rs.scans);
            snap.extras["reclaim.rotations"] = v(rs.rotations);
            snap.extras["reclaim.reclaimed"] = v(rs.reclaimed);
            snap.extras["reclaim.swap_outs"] = v(rs.swapOuts);
            snap.extras["reclaim.refaults"] = v(rs.refaults);
            snap.extras["reclaim.thp_splits"] = v(rs.thpSplits);
            snap.extras["reclaim.swapped_pages"] =
                static_cast<double>(rec->swappedPages());
            const PhysicalMemory &pm = kernel_->physMem();
            for (unsigned n = 0; n < pm.numNodes(); ++n) {
                const Zone &zone = pm.zone(n);
                const std::string p =
                    "reclaim.node" + std::to_string(n) + ".";
                snap.extras[p + "free_pages"] =
                    static_cast<double>(zone.freePagesFast());
                snap.extras[p + "lru_inactive"] = static_cast<double>(
                    zone.lruPages(Frame::LruList::Inactive));
                snap.extras[p + "lru_active"] = static_cast<double>(
                    zone.lruPages(Frame::LruList::Active));
            }
        }
    }

    if (LockStatsRegistry::enabled()) {
        for (const LockSite *site :
             LockStatsRegistry::global().sites()) {
            const LockSite::Totals t = site->totals();
            if (t.acquisitions == 0 && t.contended == 0 &&
                t.retries == 0)
                continue;
            const std::string p = "lock." + site->name() + ".";
            snap.extras[p + "acquisitions"] =
                static_cast<double>(t.acquisitions);
            snap.extras[p + "contended"] =
                static_cast<double>(t.contended);
            snap.extras[p + "retries"] =
                static_cast<double>(t.retries);
            snap.extras[p + "spin_us"] =
                static_cast<double>(t.spinNs) / 1000.0;
        }
    }
}

void
StateSampler::emitTimeline(const Snapshot &snap)
{
    TimelineSink &sink = TimelineSink::global();
    if (!sink.enabled())
        return;
    if (!streamOpen_) {
        streamId_ = sink.newStream();
        streamOpen_ = true;
    }

    FlatSnap flat = flatten(snap);
    TimelineRecord rec;
    rec.stream = streamId_;
    rec.domain = cfg_.domain;
    rec.seq = snap.seq;
    rec.tick = snap.tick;
    if (!emittedFull_) {
        rec.full = true;
        rec.set = flat;
        emittedFull_ = true;
    } else {
        rec.full = false;
        FlatDelta delta = diffFlat(prevFlat_, flat);
        rec.set = std::move(delta.set);
        rec.del = std::move(delta.del);
    }
    sink.emit(rec);
    prevFlat_ = std::move(flat);
}

// --- TimelineSink ---------------------------------------------------------

namespace
{
TimelineSink gTimelineSink;
} // namespace

TimelineSink &
TimelineSink::global()
{
    return gTimelineSink;
}

TimelineSink::~TimelineSink()
{
    close();
}

bool
TimelineSink::open(const std::string &path)
{
    close();
    file_ = std::fopen(path.c_str(), "w");
    if (!file_)
        return false;
    path_ = path;
    records_ = 0;
    nextStream_ = 0;
    return true;
}

void
TimelineSink::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
TimelineSink::emit(const TimelineRecord &rec)
{
    if (!file_)
        return;
    const std::string line = encodeTimelineRecord(rec);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    ++records_;
}

// --- RunInfo --------------------------------------------------------------

RunInfo &
RunInfo::global()
{
    static RunInfo instance;
    return instance;
}

void
RunInfo::note(std::string_view key, std::string_view value)
{
    auto it = values_.find(key);
    if (it == values_.end())
        it = values_.emplace(std::string(key), std::set<std::string>{})
                 .first;
    it->second.emplace(value);
}

void
RunInfo::note(std::string_view key, std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    note(key, std::string_view(buf));
}

void
RunInfo::note(std::string_view key, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    note(key, std::string_view(buf));
}

void
RunInfo::note(std::string_view key, bool value)
{
    note(key, std::string_view(value ? "true" : "false"));
}

void
RunInfo::count(std::string_view key)
{
    auto it = counts_.find(key);
    if (it == counts_.end())
        counts_.emplace(std::string(key), 1);
    else
        ++it->second;
}

void
RunInfo::clear()
{
    values_.clear();
    counts_.clear();
}

void
RunInfo::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[key, n] : counts_)
        w.field(key, n);
    for (const auto &[key, vals] : values_) {
        w.key(key);
        if (vals.size() == 1) {
            w.value(*vals.begin());
        } else {
            w.beginArray();
            for (const std::string &v : vals)
                w.value(v);
            w.endArray();
        }
    }
    w.endObject();
}

} // namespace obs
} // namespace contig
