/**
 * @file
 * contig_perfbench: the in-process half of the reproduction benchmark
 * (run.py is the other half). One process runs one workload as a
 * closed loop of passes; a pass is a fixed list of cells, and a cell
 * is one machine, one workload and one scheme, driven through the
 * same public calls the paper benches make (Kernel / VirtualMachine
 * construction, hogMemory, Workload::setup, policy onTick,
 * StateSampler::sampleNow, ReplayEngine::replayChunk, ...).
 *
 * Every call into a layer is timed from here, never from inside the
 * library. With --spans FILE the odd passes record a span per call
 * (name, start, end, parent, cell) in memory and write them at exit;
 * even passes stay untraced so the tracing overhead can be read off
 * the same run. End-to-end times (pass wall, machine build) are
 * measured either way.
 *
 * Output, one JSON object per line on stdout:
 *   {"facts": ...}                 run facts (compiler, SIMD mode, ...)
 *   {"pass": i, ...}               per pass: host times, exact
 *                                  simulated event counts, modelled
 *                                  results, and per-cell failures
 *   {"check": ...}                 a cell recomputed through the
 *                                  library's own composed entry points
 *                                  (NativeSystem / VirtSystem /
 *                                  runTranslation), or a fixed-seed
 *                                  anchor whose tokens run.py compares
 *                                  with the committed paper outputs
 *
 * Usage:
 *   contig_perfbench --workload {frag_sweep|virt_replay|overcommit|machines}
 *                    --seed N --seconds S [--spans FILE] [--short]
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/simd.hh"
#include "base/stats.hh"
#include "contig/analysis.hh"
#include "core/config.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "mm/kernel.hh"
#include "mm/reclaim.hh"
#include "obs/observatory.hh"
#include "obs/snapshot.hh"
#include "perfmodel/model.hh"
#include "phys/buddy.hh"
#include "phys/contiguity_map.hh"
#include "tlb/replay.hh"
#include "virt/vm.hh"
#include "workloads/access_stream.hh"
#include "workloads/workloads.hh"

using namespace contig;

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
secondsSince(std::uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

// --- spans -----------------------------------------------------------------

/** One recorded layer call. `parent` indexes the enclosing span. */
struct SpanRec
{
    std::uint32_t name;
    std::int32_t parent;
    std::int32_t cell;
    std::uint32_t pass;
    std::uint64_t start;
    std::uint64_t end;
};

/**
 * In-memory span recorder. Off, open() is one branch and records
 * nothing; contig_perfbench is single-threaded, so the open-span stack is a
 * parent index.
 */
class Tracer
{
  public:
    bool on = false;

    std::uint32_t
    intern(const std::string &name)
    {
        auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
        names_.push_back(name);
        const auto id = static_cast<std::uint32_t>(names_.size() - 1);
        ids_.emplace(name, id);
        return id;
    }

    std::int32_t
    open(std::uint32_t name)
    {
        if (!on)
            return -1;
        spans_.push_back({name, top_, cell_, pass_, nowNs(), 0});
        top_ = static_cast<std::int32_t>(spans_.size() - 1);
        return top_;
    }

    void
    close(std::int32_t idx)
    {
        if (idx < 0)
            return;
        spans_[idx].end = nowNs();
        top_ = spans_[idx].parent;
    }

    void setCell(std::int32_t cell) { cell_ = cell; }
    void setPass(std::uint32_t pass) { pass_ = pass; }

    /** TSV: name, start_ns, end_ns, parent, cell, pass. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        for (const SpanRec &s : spans_)
            std::fprintf(f, "%s\t%" PRIu64 "\t%" PRIu64 "\t%d\t%d\t%u\n",
                         names_[s.name].c_str(), s.start, s.end, s.parent,
                         s.cell, s.pass);
        return std::fclose(f) == 0;
    }

  private:
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> ids_;
    std::vector<SpanRec> spans_;
    std::int32_t top_ = -1;
    std::int32_t cell_ = -1;
    std::uint32_t pass_ = 0;
};

Tracer gTrace;

class Span
{
  public:
    explicit Span(std::uint32_t name) : idx_(gTrace.open(name)) {}
    explicit Span(const std::string &name)
        : idx_(gTrace.on ? gTrace.open(gTrace.intern(name)) : -1)
    {}
    ~Span() { gTrace.close(idx_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::int32_t idx_;
};

/** Interned id of a constant span name. */
#define SPAN_ID(name)                                                     \
    ([] {                                                                 \
        static const std::uint32_t id = gTrace.intern(name);              \
        return id;                                                        \
    }())

// --- per-pass accounting ----------------------------------------------------

/** FNV-1a over the exact bits of a cell's simulated results. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Exact simulated event counts of one pass. */
struct Events
{
    std::uint64_t faults = 0; //!< native + guest + host kernels
    std::uint64_t hugeFaults = 0;
    std::uint64_t faultCycles = 0;
    std::uint64_t hostFaults = 0;  //!< host kernels under a VM
    std::uint64_t guestFaults = 0; //!< guest kernels
    std::uint64_t migratePages = 0;
    std::uint64_t daemonTicks = 0; //!< steady-state ingens/ranger ticks
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t walks = 0;
    std::uint64_t walkRefs = 0;
    std::uint64_t spotCorrect = 0;
    std::uint64_t spotMispredicted = 0;
    std::uint64_t spotNoPrediction = 0;
    std::uint64_t rangeHits = 0;   //!< vRMM range + DS segment hits
    std::uint64_t rangeWalks = 0;  //!< walks left in vRMM/DS replays
    std::uint64_t reclaimScans = 0;
    std::uint64_t reclaimed = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t refaults = 0;
    std::uint64_t directReclaims = 0;
    std::uint64_t kswapdRuns = 0;
};

struct PassStats
{
    double setupS = 0.0;
    /** Host wall and machine-build time of each cell, in cell order. */
    std::vector<double> cellWall;
    std::vector<double> cellSetup;
    Events ev;
    std::vector<std::uint64_t> cellDigests;
    /** Modelled results (percent), keyed by metric name. */
    std::vector<std::pair<std::string, double>> model;
};

/** Stats of the pass in flight (the loop is single-threaded). */
PassStats *gPass = nullptr;

/**
 * One cell of a pass: sets the span cell id, opens the "cell" span
 * and records the cell's wall and machine-build time.
 */
class CellScope
{
  public:
    explicit CellScope(std::int32_t id)
        : t0_((gTrace.setCell(id), nowNs())), setup0_(gPass->setupS),
          span_(gTrace.open(SPAN_ID("cell")))
    {}

    ~CellScope()
    {
        gTrace.close(span_);
        gPass->cellWall.push_back(secondsSince(t0_));
        gPass->cellSetup.push_back(gPass->setupS - setup0_);
        gTrace.setCell(-1);
    }

    CellScope(const CellScope &) = delete;
    CellScope &operator=(const CellScope &) = delete;

  private:
    std::uint64_t t0_;
    double setup0_;
    std::int32_t span_;
};

void
addKernelFaults(const Kernel &k)
{
    const FaultStats &fs = k.faultStats();
    gPass->ev.faults += fs.faults;
    gPass->ev.hugeFaults += fs.hugeFaults;
    gPass->ev.faultCycles += fs.totalCycles;
}

void
addXlat(const XlatStats &s, XlatScheme scheme)
{
    Events &ev = gPass->ev;
    ev.accesses += s.accesses;
    ev.l1Hits += s.l1Hits;
    ev.l2Hits += s.l2Hits;
    ev.walks += s.walks;
    ev.walkRefs += s.walkRefs;
    ev.spotCorrect += s.spotCorrect;
    ev.spotMispredicted += s.spotMispredicted;
    ev.spotNoPrediction += s.spotNoPrediction;
    if (scheme == XlatScheme::Rmm || scheme == XlatScheme::Ds) {
        ev.rangeHits += s.rangeHits + s.segmentHits;
        ev.rangeWalks += s.walks;
    }
}

void
digestXlat(Digest &d, const XlatStats &s)
{
    for (std::uint64_t v :
         {s.accesses, s.l1Hits, s.l2Hits, s.walks, s.walkRefs,
          s.walkCycles, s.exposedCycles, s.spotCorrect, s.spotMispredicted,
          s.spotNoPrediction, s.rangeHits, s.segmentHits})
        d.add(v);
}

void
digestCoverage(Digest &d, const CoverageMetrics &m)
{
    d.add(m.totalPages);
    d.add(m.mappings);
    d.add(m.cov32);
    d.add(m.cov128);
    d.add(m.mappingsFor99);
}

std::string
policyKey(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Thp: return "thp";
      case PolicyKind::Base4k: return "4k";
      case PolicyKind::Ca: return "ca";
      case PolicyKind::Eager: return "eager";
      case PolicyKind::Ingens: return "ingens";
      case PolicyKind::Ranger: return "ranger";
      case PolicyKind::Ideal: return "ideal";
    }
    return "unknown";
}

// --- machines ---------------------------------------------------------------

std::unique_ptr<Kernel>
buildKernel(const KernelConfig &cfg, PolicyKind kind)
{
    const std::uint64_t t0 = nowNs();
    std::unique_ptr<Kernel> k;
    {
        Span s(SPAN_ID("phys.build"));
        k = std::make_unique<Kernel>(cfg, makePolicy(kind));
    }
    gPass->setupS += secondsSince(t0);
    return k;
}

void
destroyKernel(std::unique_ptr<Kernel> &k)
{
    addKernelFaults(*k);
    Span s(SPAN_ID("phys.destroy"));
    k.reset();
}

/** VirtSystem(host_kind, guest_kind), built call by call. */
struct VirtMachine
{
    std::unique_ptr<Kernel> host;
    std::unique_ptr<VirtualMachine> vm;
};

VirtMachine
buildVirt(PolicyKind host_kind, PolicyKind guest_kind)
{
    VirtMachine m;
    m.host = buildKernel(kernelConfigFor(host_kind), host_kind);
    VmConfig vcfg = ScaledDefaults::vm();
    vcfg.guestKernel.thpEnabled = guest_kind != PolicyKind::Base4k;
    const bool guest_ca =
        guest_kind == PolicyKind::Ca || guest_kind == PolicyKind::Ideal;
    vcfg.guestKernel.phys.zone.sortedTopList = guest_ca;
    vcfg.guestKernel.phys.zone.scrambleSeed = guest_ca ? 0 : 0xFACADE;
    if (guest_kind == PolicyKind::Eager)
        vcfg.guestKernel.phys.zone.maxOrder = ScaledDefaults::kEagerMaxOrder;
    const std::uint64_t t0 = nowNs();
    {
        Span s(SPAN_ID("virt.build"));
        m.vm = std::make_unique<VirtualMachine>(
            *m.host, makePolicy(guest_kind), vcfg);
    }
    gPass->setupS += secondsSince(t0);
    return m;
}

void
destroyVirt(VirtMachine &m)
{
    const std::uint64_t guest = m.vm->guest().faultStats().faults;
    const std::uint64_t host = m.host->faultStats().faults;
    gPass->ev.guestFaults += guest;
    gPass->ev.hostFaults += host;
    addKernelFaults(m.vm->guest());
    {
        Span s(SPAN_ID("phys.destroy"));
        m.vm.reset();
    }
    destroyKernel(m.host);
}

// --- layer calls ------------------------------------------------------------

struct ContigOut
{
    CoverageMetrics avg;
    CoverageMetrics final;
    std::uint64_t faults = 0;
};

/**
 * NativeSystem::run, call by call: fault-in under an attached
 * StateSampler, then the steady-state daemon ticks and samples.
 */
ContigOut
runContig(Kernel &kernel, PolicyKind kind, Workload &wl)
{
    const std::uint64_t faults0 = kernel.faultStats().faults;
    const std::uint64_t migr0 = kernel.counters().get("migrate.pages");
    const std::string key = policyKey(kind);

    obs::SamplerConfig scfg;
    scfg.periodFaults = 4096;
    scfg.captureFreeHist = obs::TimelineSink::global().enabled();
    scfg.domain = policyName(kind) + ":" + wl.name();
    obs::StateSampler sampler(scfg);
    {
        Span s("mm.fault_in." + key);
        Process &proc = kernel.createProcess(wl.name());
        sampler.addSegProbe(
            "1d", &proc,
            [&proc] { return extractSegs(proc.pageTable()); }, true);
        sampler.attachKernel(kernel);
        wl.setup(proc);
        sampler.detachKernel();
    }
    const std::size_t fault_samples = sampler.snapshots().size();
    const int steady =
        std::max<int>(24, 3 * static_cast<int>(fault_samples));
    const std::uint32_t tick_id = gTrace.intern("policies.tick." + key);
    for (int i = 0; i < steady; ++i) {
        {
            Span s(tick_id);
            kernel.policy().onTick(kernel);
        }
        Span s(SPAN_ID("obs.sample"));
        sampler.sampleNow();
    }
    if (kind == PolicyKind::Ingens || kind == PolicyKind::Ranger)
        gPass->ev.daemonTicks += static_cast<std::uint64_t>(steady);

    ContigOut out;
    {
        Span s(SPAN_ID("obs.sample"));
        sampler.sampleNow();
        CoverageTimeline timeline;
        for (const obs::Snapshot &snap : sampler.snapshots())
            timeline.addSample(snap.coverage);
        out.avg = timeline.average();
        out.final = sampler.snapshots().back().coverage;
    }
    out.faults = kernel.faultStats().faults - faults0;
    gPass->ev.migratePages += kernel.counters().get("migrate.pages") - migr0;
    return out;
}

void
teardown(Kernel &kernel, Workload &wl)
{
    Span s(SPAN_ID("mm.teardown"));
    Process *proc = wl.process();
    wl.teardown();
    kernel.exitProcess(*proc);
}

/**
 * runTranslation (threads=1, default chunk, default engine), call by
 * call: the replay span's self time is ReplayEngine::replayChunk, its
 * workloads.gen children are AccessStream::next.
 */
XlatStats
replay(Workload &wl, const VirtualMachine *vm, XlatScheme scheme,
       std::uint64_t accesses, std::uint64_t seed, std::uint32_t span_id)
{
    Process *proc = wl.process();
    XlatConfig cfg;
    cfg.tlb = ScaledDefaults::tlb();
    cfg.walker = ScaledDefaults::walker();
    cfg.scheme = scheme;
    cfg.spot = ScaledDefaults::spot();
    cfg.rangeTlb = ScaledDefaults::rangeTlb();
    const XlatReplayOpts defaults{};
    cfg.walker.memoEnabled = defaults.memo;
    cfg.engine = defaults.engine;

    std::unique_ptr<ReplayEngine> engine;
    {
        Span s(SPAN_ID("tlb.setup"));
        engine = vm ? std::make_unique<ReplayEngine>(cfg, 1,
                                                     proc->pageTable(), *vm)
                    : std::make_unique<ReplayEngine>(cfg, 1,
                                                     proc->pageTable());
    }
    if (scheme == XlatScheme::Rmm || scheme == XlatScheme::Ds) {
        Span s(SPAN_ID("contig.extract"));
        engine->setSegments(vm ? extract2d(*proc, *vm)
                               : extractSegs(proc->pageTable()));
    }
    const std::uint32_t gen_id = SPAN_ID("workloads.gen");
    {
        Span r(span_id);
        std::unique_ptr<AccessStream> stream;
        {
            Span g(gen_id);
            stream = std::make_unique<AccessStream>(wl, accesses, seed, 0);
        }
        const MemAccess *chunk = nullptr;
        for (;;) {
            std::size_t n;
            {
                Span g(gen_id);
                n = stream->next(chunk);
            }
            if (n == 0)
                break;
            engine->replayChunk(chunk, n);
        }
    }
    XlatStats stats = engine->mergedStats();
    addXlat(stats, scheme);
    {
        Span s(SPAN_ID("tlb.setup"));
        engine.reset();
    }
    return stats;
}

/** Translation overhead over ideal execution, as a fraction. */
double
overhead(const XlatStats &s)
{
    return overheadOf(s, ScaledDefaults::perf()).overhead;
}

bool
sameXlat(const XlatStats &a, const XlatStats &b)
{
    Digest da, db;
    digestXlat(da, a);
    digestXlat(db, b);
    return da.value() == db.value();
}

bool
sameCoverage(const CoverageMetrics &a, const CoverageMetrics &b)
{
    Digest da, db;
    digestCoverage(da, a);
    digestCoverage(db, b);
    return da.value() == db.value();
}

/** {"check": ...}: a library cross-check (ok) or anchor tokens. */
void
printCheck(const std::string &name, bool ok,
           const std::vector<std::string> &tokens = {})
{
    std::printf("{\"check\": \"%s\", \"ok\": %s, \"tokens\": [",
                name.c_str(), ok ? "true" : "false");
    for (std::size_t i = 0; i < tokens.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", tokens[i].c_str());
    std::printf("]}\n");
}

// --- workload: frag_sweep (fig08-shaped) ------------------------------------

struct FragCell
{
    double hog;
    PolicyKind kind;
    std::string name;
};

std::vector<FragCell>
fragCells(bool short_mode)
{
    const std::vector<double> hogs =
        short_mode ? std::vector<double>{0.0, 0.50}
                   : std::vector<double>{0.0, 0.10, 0.25, 0.50};
    const std::vector<PolicyKind> kinds{
        PolicyKind::Thp,   PolicyKind::Ingens, PolicyKind::Ca,
        PolicyKind::Eager, PolicyKind::Ranger, PolicyKind::Ideal};
    std::vector<std::string> names;
    for (const auto &n : paperWorkloads())
        if (n != "bt" && (!short_mode || n == "svm" || n == "xsbench"))
            names.push_back(n);
    std::vector<FragCell> cells;
    for (double hog : hogs)
        for (PolicyKind kind : kinds)
            for (const auto &n : names)
                if (!(kind == PolicyKind::Eager && n == "hashjoin"))
                    cells.push_back({hog, kind, n});
    return cells;
}

ContigOut
fragCell(const FragCell &c, std::uint64_t seed)
{
    auto kernel = buildKernel(kernelConfigFor(c.kind), c.kind);
    Rng rng(seed);
    if (c.hog > 0.0) {
        Span s(SPAN_ID("workloads.hog"));
        hogMemory(*kernel, c.hog, rng);
    }
    auto wl = makeWorkload(c.name, {1.0, seed});
    ContigOut out = runContig(*kernel, c.kind, *wl);
    teardown(*kernel, *wl);
    destroyKernel(kernel);
    return out;
}

/** fig08's per-row reduction of one (hog, policy) group. */
std::vector<std::string>
fragRowTokens(const std::vector<ContigOut> &outs)
{
    std::vector<double> c32, c128, m99;
    for (const ContigOut &o : outs) {
        c32.push_back(std::max(o.avg.cov32, 1e-6));
        c128.push_back(std::max(o.avg.cov128, 1e-6));
        m99.push_back(static_cast<double>(
            std::max<std::uint64_t>(o.avg.mappingsFor99, 1)));
    }
    return {Report::pct(geomean(c32)), Report::pct(geomean(c128)),
            Report::num(geomean(m99), 1)};
}

struct FragSweep
{
    std::vector<FragCell> cells;
    std::uint64_t seed;
    std::vector<ContigOut> firstPass;

    void
    pass()
    {
        std::vector<double> ca50;
        std::vector<ContigOut> outs;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ContigOut o;
            {
                CellScope cell(static_cast<std::int32_t>(i));
                o = fragCell(cells[i], seed);
            }
            Digest d;
            digestCoverage(d, o.avg);
            digestCoverage(d, o.final);
            d.add(o.faults);
            gPass->cellDigests.push_back(d.value());
            if (cells[i].kind == PolicyKind::Ca && cells[i].hog == 0.50)
                ca50.push_back(std::max(o.avg.cov32, 1e-6));
            outs.push_back(o);
        }
        gPass->model.emplace_back("ca_cov32_pct", geomean(ca50) * 100.0);
        if (firstPass.empty())
            firstPass = std::move(outs);
    }

    void
    check()
    {
        // Two seed-chosen cells through NativeSystem::run.
        for (std::uint64_t k = 0; k < 2; ++k) {
            const std::size_t i = (seed * 7919 + k * 37) % cells.size();
            const FragCell &c = cells[i];
            NativeSystem sys(c.kind, seed);
            if (c.hog > 0.0)
                sys.hog(c.hog);
            auto wl = makeWorkload(c.name, {1.0, seed});
            const ContigRunResult r = sys.run(*wl);
            sys.finish(*wl);
            const ContigOut &o = firstPass[i];
            printCheck("native_system." + policyKey(c.kind) + "." + c.name,
                       sameCoverage(r.avg, o.avg) &&
                           sameCoverage(r.final, o.final) &&
                           r.faults == o.faults);
        }
        // Anchor: fig08's hog-50% CA row at the paper seed.
        std::vector<ContigOut> row;
        for (const auto &n : paperWorkloads())
            if (n != "bt")
                row.push_back(
                    fragCell({0.50, PolicyKind::Ca, n}, 7));
        printCheck("golden.fig08.hog-50%.CA", true, fragRowTokens(row));
    }
};

// --- workload: virt_replay (fig13-shaped) -----------------------------------

struct VirtReplay
{
    std::uint64_t seed;
    std::uint64_t accesses;
    std::uint64_t streamSeed;
    std::vector<XlatStats> firstBase;
    std::vector<XlatStats> firstCa;

    /** One native or virtualized base-scheme cell (fig13's columns). */
    XlatStats
    baseCell(const std::string &name, PolicyKind kind, bool virt,
             std::uint64_t wl_seed, std::uint64_t n,
             std::uint64_t stream_seed)
    {
        const std::string span =
            std::string("tlb.replay.") + (virt ? "virt_" : "native_") +
            (kind == PolicyKind::Base4k ? "4k" : "thp");
        XlatStats st;
        if (virt) {
            VirtMachine m = buildVirt(kind, kind);
            auto wl = makeWorkload(name, {1.0, wl_seed});
            {
                Span s(SPAN_ID("virt.fault_in"));
                wl->setup(m.vm->guest().createProcess(name));
            }
            st = replay(*wl, m.vm.get(), XlatScheme::Base, n, stream_seed,
                        gTrace.intern(span));
            teardown(m.vm->guest(), *wl);
            destroyVirt(m);
        } else {
            auto kernel = buildKernel(kernelConfigFor(kind), kind);
            auto wl = makeWorkload(name, {1.0, wl_seed});
            {
                Span s("mm.fault_in." + policyKey(kind));
                wl->setup(kernel->createProcess(name));
            }
            st = replay(*wl, nullptr, XlatScheme::Base, n, stream_seed,
                        gTrace.intern(span));
            teardown(*kernel, *wl);
            destroyKernel(kernel);
        }
        return st;
    }

    /**
     * fig13's CA sequence: the workloads run consecutively in one
     * aging CA/CA VM, each replayed under SpOT, vRMM and DS.
     */
    std::vector<XlatStats>
    caChain(std::uint64_t wl_seed, std::uint64_t n,
            std::uint64_t stream_seed, std::size_t workloads)
    {
        std::vector<XlatStats> out;
        VirtMachine m;
        {
            CellScope cell(99);
            m = buildVirt(PolicyKind::Ca, PolicyKind::Ca);
        }
        for (std::size_t i = 0; i < workloads; ++i) {
            const std::string &name = paperWorkloads()[i];
            CellScope cell(static_cast<std::int32_t>(100 + i));
            auto wl = makeWorkload(name, {1.0, wl_seed});
            {
                Span s(SPAN_ID("virt.fault_in"));
                wl->setup(m.vm->guest().createProcess(name));
            }
            out.push_back(replay(*wl, m.vm.get(), XlatScheme::Spot, n,
                                 stream_seed, SPAN_ID("spot.replay")));
            out.push_back(replay(*wl, m.vm.get(), XlatScheme::Rmm, n,
                                 stream_seed, SPAN_ID("ranges.replay.rmm")));
            out.push_back(replay(*wl, m.vm.get(), XlatScheme::Ds, n,
                                 stream_seed, SPAN_ID("ranges.replay.ds")));
            teardown(m.vm->guest(), *wl);
        }
        {
            CellScope cell(100 + static_cast<std::int32_t>(workloads));
            destroyVirt(m);
        }
        return out;
    }

    void
    pass()
    {
        const auto &names = paperWorkloads();
        std::vector<XlatStats> base;
        double thp_sum = 0.0;
        // Base cells: THP+THP on every workload (the baseline SpOT is
        // judged against), plus native 4K/THP and virtualized 4K+4K on
        // svm, the smallest workload, so every base replay path is
        // timed.
        for (std::size_t i = 0; i < names.size(); ++i) {
            CellScope cell(static_cast<std::int32_t>(i));
            base.push_back(baseCell(names[i], PolicyKind::Thp, true, seed,
                                    accesses, streamSeed));
            thp_sum += overhead(base.back()) * 100.0;
        }
        const std::string &pick = names[0];
        const std::pair<PolicyKind, bool> extra[] = {
            {PolicyKind::Base4k, false},
            {PolicyKind::Thp, false},
            {PolicyKind::Base4k, true}};
        for (std::size_t i = 0; i < 3; ++i) {
            CellScope cell(static_cast<std::int32_t>(names.size() + i));
            base.push_back(baseCell(pick, extra[i].first, extra[i].second,
                                    seed, accesses, streamSeed));
        }
        const std::vector<XlatStats> ca =
            caChain(seed, accesses, streamSeed, names.size());

        double spot_sum = 0.0;
        for (std::size_t i = 0; i < ca.size(); i += 3)
            spot_sum += overhead(ca[i]) * 100.0;
        for (const XlatStats &s : base) {
            Digest d;
            digestXlat(d, s);
            gPass->cellDigests.push_back(d.value());
        }
        for (const XlatStats &s : ca) {
            Digest d;
            digestXlat(d, s);
            gPass->cellDigests.push_back(d.value());
        }
        gPass->model.emplace_back("spot_overhead_pct",
                                  spot_sum / names.size());
        gPass->model.emplace_back("thp_virt_overhead_pct",
                                  thp_sum / names.size());
        if (firstBase.empty()) {
            firstBase = base;
            firstCa = ca;
        }
    }

    void
    check()
    {
        const auto &names = paperWorkloads();
        // A seed-chosen THP+THP cell through VirtSystem + runTranslation.
        {
            const std::size_t i = (seed * 7919) % names.size();
            VirtSystem sys(PolicyKind::Thp, PolicyKind::Thp, seed);
            auto wl = makeWorkload(names[i], {1.0, seed});
            wl->setup(sys.guest().createProcess(names[i]));
            const XlatRunResult r = runTranslation(
                *wl, &sys.vm(), XlatScheme::Base, accesses, streamSeed);
            printCheck("run_translation.virt_thp." + names[i],
                       sameXlat(r.stats, firstBase[i]));
        }
        // The first CA/CA workload under SpOT, vRMM and DS.
        {
            VirtSystem sys(PolicyKind::Ca, PolicyKind::Ca, seed);
            auto wl = makeWorkload(names[0], {1.0, seed});
            wl->setup(sys.guest().createProcess(names[0]));
            const XlatScheme schemes[] = {XlatScheme::Spot, XlatScheme::Rmm,
                                          XlatScheme::Ds};
            bool ok = true;
            for (std::size_t k = 0; k < 3; ++k)
                ok = ok && sameXlat(runTranslation(*wl, &sys.vm(),
                                                   schemes[k], accesses,
                                                   streamSeed)
                                        .stats,
                                    firstCa[k]);
            printCheck("run_translation.ca_chain." + names[0], ok);
        }
        // Anchor: fig13's svm row (THP+THP, SpOT, vRMM, DS) at the
        // paper seed and access count.
        const std::uint64_t n = ScaledDefaults::kAccessesPerRun;
        const XlatStats thp =
            baseCell(names[0], PolicyKind::Thp, true, 7, n, 99);
        const std::vector<XlatStats> ca = caChain(7, n, 99, 1);
        printCheck("golden.fig13." + names[0], true,
                   {Report::pct(overhead(thp)), Report::pct(overhead(ca[0]), 2),
                    Report::pct(overhead(ca[1]), 2),
                    Report::pct(overhead(ca[2]), 2)});
    }
};

// --- workload: overcommit (fig_overcommit-shaped) ---------------------------

constexpr std::uint64_t kMiB = 1ull << 20;
constexpr std::uint64_t kNodeBytes = 96 * kMiB;
constexpr unsigned kNodes = 2;
constexpr std::uint64_t kPhysBytes = kNodes * kNodeBytes;
constexpr std::uint64_t kWsBytes = kPhysBytes + (kPhysBytes * 3) / 5;
constexpr std::uint64_t kHotBytes = kPhysBytes / 4;
constexpr std::uint64_t kOvercommitAccesses = 1ull << 19;

/** fig_overcommit's workload: a 1.6x-physical region, hot prefix. */
class OvercommitWorkload : public Workload
{
  public:
    explicit OvercommitWorkload(const WorkloadConfig &cfg) : Workload(cfg)
    {
        regions_.push_back({kWsBytes + 8 * kMiB, kWsBytes});
    }

    std::string name() const override { return "overcommit"; }

    MemAccess
    nextAccess(Rng &rng) override
    {
        if (rng.chance(0.02))
            hot_ = rng.below(kHotBytes) & ~std::uint64_t{63};
        cursor_ += 64;
        if (rng.chance(0.75))
            return {0x400000, at(0, cursor_ % kHotBytes)};
        return {0x400040, at(0, hot_)};
    }

  protected:
    void
    touchPattern(Process &proc) override
    {
        proc.touchRange(base(0), kWsBytes);
        proc.touchRange(base(0), kHotBytes);
    }

  private:
    std::uint64_t cursor_ = 0;
    std::uint64_t hot_ = 0;
};

KernelConfig
overcommitConfig(PolicyKind kind, bool contig_aware)
{
    KernelConfig cfg = kernelConfigFor(kind);
    cfg.phys.bytesPerNode = kNodeBytes;
    cfg.phys.numNodes = kNodes;
    cfg.reclaimEnabled = true;
    cfg.kswapdEnabled = true;
    cfg.contigAwareReclaim = contig_aware;
    return cfg;
}

struct OvercommitOut
{
    ContigOut contig;
    XlatStats xlat;
    /** fig_overcommit's two table rows for this cell. */
    std::vector<std::string> actTokens;
    std::vector<std::string> fragTokens;
};

OvercommitOut
overcommitCell(PolicyKind kind, bool contig_aware, std::uint64_t seed,
               std::uint64_t stream_seed)
{
    auto kernel = buildKernel(overcommitConfig(kind, contig_aware), kind);
    OvercommitWorkload wl({1.0, seed});
    OvercommitOut out;
    out.contig = runContig(*kernel, kind, wl);
    {
        Span s(SPAN_ID("mm.retouch"));
        wl.process()->touchRange(wl.vmas()[0]->start(), kHotBytes);
    }
    out.xlat = replay(wl, nullptr, XlatScheme::Spot, kOvercommitAccesses,
                      stream_seed, SPAN_ID("spot.replay"));

    const ReclaimStats &rs = kernel->reclaim()->stats();
    auto get = [](const std::atomic<std::uint64_t> &a) {
        return a.load(std::memory_order_relaxed);
    };
    Events &ev = gPass->ev;
    ev.reclaimScans += get(rs.scans);
    ev.reclaimed += get(rs.reclaimed);
    ev.swapOuts += get(rs.swapOuts);
    ev.refaults += get(rs.refaults);
    ev.directReclaims += get(rs.directReclaims);
    ev.kswapdRuns += get(rs.kswapdRuns);

    double fmfi = 0.0;
    std::uint64_t largest = 0;
    const PhysicalMemory &pm = kernel->physMem();
    for (unsigned n = 0; n < pm.numNodes(); ++n) {
        const Zone &zone = pm.zone(n);
        fmfi += zone.buddy().unusableFreeIndex(kHugeOrder);
        if (auto big = zone.contigMap().largest())
            largest = std::max(largest, big->pages);
    }
    fmfi /= pm.numNodes();
    const std::string victims = contig_aware ? "contig" : "lru";
    out.actTokens = {policyName(kind),
                     victims,
                     Report::num(static_cast<double>(out.contig.faults), 0),
                     Report::num(static_cast<double>(get(rs.reclaimed)), 0),
                     Report::num(static_cast<double>(get(rs.swapOuts)), 0),
                     Report::num(static_cast<double>(get(rs.refaults)), 0),
                     Report::num(static_cast<double>(get(rs.thpSplits)), 0),
                     Report::num(static_cast<double>(get(rs.directReclaims)),
                                 0),
                     Report::num(static_cast<double>(get(rs.kswapdRuns)),
                                 0)};
    out.fragTokens = {
        policyName(kind), victims, Report::pct(out.contig.final.cov32),
        Report::num(fmfi, 3),
        Report::num(static_cast<double>(largest) * kPageSize / kMiB, 1) +
            "M",
        Report::num(static_cast<double>(get(rs.swapOuts) -
                                        get(rs.refaults)),
                    0),
        Report::pct(overhead(out.xlat))};

    teardown(*kernel, wl);
    destroyKernel(kernel);
    return out;
}

struct Overcommit
{
    std::uint64_t seed;
    std::uint64_t subSeeds;
    std::uint64_t streamSeed;
    struct Cell
    {
        PolicyKind kind;
        bool contigAware;
        std::uint64_t seed;
    };
    std::vector<Cell> cells;
    std::vector<OvercommitOut> firstPass;

    void
    init()
    {
        for (std::uint64_t s = 0; s < subSeeds; ++s)
            for (PolicyKind kind :
                 {PolicyKind::Ca, PolicyKind::Ranger, PolicyKind::Thp})
                for (bool aware : {false, true})
                    cells.push_back({kind, aware, seed + s});
    }

    void
    pass()
    {
        double ca_contig = 0.0;
        std::vector<OvercommitOut> outs;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            OvercommitOut o;
            {
                CellScope cell(static_cast<std::int32_t>(i));
                o = overcommitCell(cells[i].kind, cells[i].contigAware,
                                   cells[i].seed, streamSeed);
            }
            Digest d;
            digestCoverage(d, o.contig.avg);
            digestCoverage(d, o.contig.final);
            d.add(o.contig.faults);
            digestXlat(d, o.xlat);
            gPass->cellDigests.push_back(d.value());
            if (cells[i].kind == PolicyKind::Ca && cells[i].contigAware)
                ca_contig += o.contig.final.cov32;
            outs.push_back(std::move(o));
        }
        gPass->model.emplace_back("overcommit_cov32_pct",
                                  ca_contig / subSeeds * 100.0);
        if (firstPass.empty())
            firstPass = std::move(outs);
    }

    void
    check()
    {
        // A seed-chosen cell through NativeSystem::run + runTranslation.
        const std::size_t i = (seed * 7919) % cells.size();
        const Cell &c = cells[i];
        NativeSystem sys(c.kind, c.seed, [&](KernelConfig &cfg) {
            cfg = overcommitConfig(c.kind, c.contigAware);
        });
        OvercommitWorkload wl({1.0, c.seed});
        const ContigRunResult r = sys.run(wl);
        wl.process()->touchRange(wl.vmas()[0]->start(), kHotBytes);
        const XlatRunResult x = runTranslation(
            wl, nullptr, XlatScheme::Spot, kOvercommitAccesses, streamSeed);
        sys.finish(wl);
        const OvercommitOut &o = firstPass[i];
        printCheck("native_system.overcommit." + policyKey(c.kind) +
                       (c.contigAware ? ".contig" : ".lru"),
                   sameCoverage(r.avg, o.contig.avg) &&
                       sameCoverage(r.final, o.contig.final) &&
                       r.faults == o.contig.faults &&
                       sameXlat(x.stats, o.xlat));
        // Anchor: fig_overcommit's CA rows at the paper seed.
        for (bool aware : {false, true}) {
            const OvercommitOut a =
                overcommitCell(PolicyKind::Ca, aware, 7, 99);
            const std::string v = aware ? "contig" : "lru";
            printCheck("reference.fig_overcommit.act.CA." + v, true,
                       a.actTokens);
            printCheck("reference.fig_overcommit.frag.CA." + v, true,
                       a.fragTokens);
        }
    }
};

// --- workload: machines (repro_suite's set-up probe) -----------------------

/** One machine of every configuration the suite builds, per pass. */
void
machinesPass()
{
    const PolicyKind kinds[] = {PolicyKind::Thp,    PolicyKind::Base4k,
                                PolicyKind::Ca,     PolicyKind::Eager,
                                PolicyKind::Ingens, PolicyKind::Ranger,
                                PolicyKind::Ideal};
    std::int32_t cell = 0;
    for (PolicyKind kind : kinds) {
        CellScope c(cell++);
        auto k = buildKernel(kernelConfigFor(kind), kind);
        destroyKernel(k);
    }
    for (PolicyKind kind : {PolicyKind::Thp, PolicyKind::Ca}) {
        CellScope c(cell++);
        VirtMachine m = buildVirt(kind, kind);
        destroyVirt(m);
    }
    gPass->cellDigests.assign(static_cast<std::size_t>(cell), 0);
}

// --- main loop --------------------------------------------------------------

void
printPass(std::uint32_t idx, bool traced, double wall, const PassStats &p,
          std::uint64_t failed)
{
    const Events &e = p.ev;
    std::printf("{\"pass\": %u, \"traced\": %s, \"wall_s\": %.9f, "
                "\"setup_s\": %.9f, \"cells\": %zu, \"failed\": %" PRIu64
                ", \"events\": {",
                idx, traced ? "true" : "false", wall, p.setupS,
                p.cellDigests.size(), failed);
    const std::pair<const char *, std::uint64_t> fields[] = {
        {"faults", e.faults},
        {"huge_faults", e.hugeFaults},
        {"fault_cycles", e.faultCycles},
        {"host_faults", e.hostFaults},
        {"guest_faults", e.guestFaults},
        {"migrate_pages", e.migratePages},
        {"daemon_ticks", e.daemonTicks},
        {"accesses", e.accesses},
        {"l1_hits", e.l1Hits},
        {"l2_hits", e.l2Hits},
        {"walks", e.walks},
        {"walk_refs", e.walkRefs},
        {"spot_correct", e.spotCorrect},
        {"spot_mispredicted", e.spotMispredicted},
        {"spot_no_prediction", e.spotNoPrediction},
        {"range_hits", e.rangeHits},
        {"range_walks", e.rangeWalks},
        {"reclaim_scans", e.reclaimScans},
        {"reclaimed", e.reclaimed},
        {"swap_outs", e.swapOuts},
        {"refaults", e.refaults},
        {"direct_reclaims", e.directReclaims},
        {"kswapd_runs", e.kswapdRuns},
    };
    bool first = true;
    for (const auto &[k, v] : fields) {
        std::printf("%s\"%s\": %" PRIu64, first ? "" : ", ", k, v);
        first = false;
    }
    std::printf("}, \"cell_wall_s\": [");
    for (std::size_t i = 0; i < p.cellWall.size(); ++i)
        std::printf("%s%.9f", i ? ", " : "", p.cellWall[i]);
    std::printf("], \"cell_setup_s\": [");
    for (std::size_t i = 0; i < p.cellSetup.size(); ++i)
        std::printf("%s%.9f", i ? ", " : "", p.cellSetup[i]);
    std::printf("], \"model\": {");
    first = true;
    for (const auto &[k, v] : p.model) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "contig_perfbench: %s\nusage: contig_perfbench --workload "
                 "{frag_sweep|virt_replay|overcommit|machines} --seed N "
                 "--seconds S [--spans FILE] [--short]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string spans;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    bool short_mode = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            char *end = nullptr;
            const std::string v = value();
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a non-negative integer");
            have_seed = true;
        } else if (a == "--seconds") {
            char *end = nullptr;
            const std::string v = value();
            seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || seconds < 0)
                usage("--seconds takes a non-negative number");
        } else if (a == "--spans") {
            spans = value();
        } else if (a == "--short") {
            short_mode = true;
        } else {
            usage(("unknown argument '" + a + "'").c_str());
        }
    }
    if (workload.empty() || !have_seed || seconds < 0)
        usage("--workload, --seed and --seconds are required");

    std::printf("{\"facts\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"simd\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"short\": %s}}\n",
                __VERSION__, PERFBENCH_BUILD_TYPE,
                simd::modeName(simd::enabled()), workload.c_str(), seed,
                short_mode ? "true" : "false");

    FragSweep frag{fragCells(short_mode), seed, {}};
    VirtReplay virt{seed,
                    short_mode ? ScaledDefaults::kAccessesPerRun / 4
                               : 4 * ScaledDefaults::kAccessesPerRun,
                    seed * 1000003 + 99,
                    {},
                    {}};
    Overcommit over{seed, short_mode ? 1u : 3u, seed * 1000003 + 99, {},
                    {}};
    over.init();

    std::function<void()> pass;
    std::function<void()> check;
    if (workload == "frag_sweep") {
        pass = [&] { frag.pass(); };
        check = [&] { frag.check(); };
    } else if (workload == "virt_replay") {
        pass = [&] { virt.pass(); };
        check = [&] { virt.check(); };
    } else if (workload == "overcommit") {
        pass = [&] { over.pass(); };
        check = [&] { over.check(); };
    } else if (workload == "machines") {
        pass = machinesPass;
        check = [] {};
    } else {
        usage(("unknown workload '" + workload + "'").c_str());
    }

    // Closed loop: passes back to back until the next one would end
    // past the budget. Two passes at least, so every cell has more
    // than one sample; traced runs alternate untraced (even) and
    // traced (odd) passes and so get one of each.
    const bool tracing = !spans.empty();
    const std::uint32_t min_passes = short_mode && !tracing ? 1 : 2;
    const std::uint64_t t0 = nowNs();
    std::vector<std::uint64_t> reference;
    for (std::uint32_t idx = 0;; ++idx) {
        PassStats ps;
        gPass = &ps;
        gTrace.on = tracing && (idx % 2 == 1);
        gTrace.setPass(idx);
        const std::uint64_t p0 = nowNs();
        {
            Span s(SPAN_ID("pass"));
            pass();
        }
        const double wall = secondsSince(p0);
        gTrace.on = false;
        std::uint64_t failed = 0;
        if (reference.empty()) {
            reference = ps.cellDigests;
        } else {
            for (std::size_t c = 0; c < ps.cellDigests.size(); ++c)
                failed += c >= reference.size() ||
                          ps.cellDigests[c] != reference[c];
        }
        printPass(idx, tracing && idx % 2 == 1, wall, ps, failed);
        gPass = nullptr;
        const double elapsed = secondsSince(t0);
        if (idx + 1 >= min_passes &&
            elapsed + elapsed / (idx + 1) > seconds)
            break;
    }

    PassStats check_stats;
    gPass = &check_stats;
    check();
    gPass = nullptr;

    if (tracing && !gTrace.write(spans)) {
        std::fprintf(stderr, "contig_perfbench: cannot write '%s'\n",
                     spans.c_str());
        return 1;
    }
    return 0;
}
