#include "core/experiment.hh"

#include "base/logging.hh"
#include "base/simd.hh"
#include "obs/attribution.hh"
#include "obs/observatory.hh"
#include "policies/ca_paging.hh"
#include "policies/eager.hh"
#include "policies/ideal.hh"
#include "policies/ingens.hh"
#include "policies/ranger.hh"
#include "tlb/replay.hh"
#include "workloads/access_stream.hh"

namespace contig
{

std::unique_ptr<AllocationPolicy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Thp:
        return std::make_unique<DefaultThpPolicy>();
      case PolicyKind::Base4k:
        return std::make_unique<Base4kPolicy>();
      case PolicyKind::Ca:
        return std::make_unique<CaPagingPolicy>();
      case PolicyKind::Eager:
        return std::make_unique<EagerPolicy>();
      case PolicyKind::Ingens:
        return std::make_unique<IngensPolicy>();
      case PolicyKind::Ranger:
        return std::make_unique<RangerPolicy>();
      case PolicyKind::Ideal:
        return std::make_unique<IdealPolicy>();
    }
    panic("unknown policy kind");
}

std::string
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Thp: return "THP";
      case PolicyKind::Base4k: return "4K";
      case PolicyKind::Ca: return "CA";
      case PolicyKind::Eager: return "eager";
      case PolicyKind::Ingens: return "ingens";
      case PolicyKind::Ranger: return "ranger";
      case PolicyKind::Ideal: return "ideal";
    }
    panic("unknown policy kind");
}

KernelConfig
kernelConfigFor(PolicyKind kind)
{
    KernelConfig cfg = ScaledDefaults::hostKernel();
    // The sorted top-order free list is CA paging's own
    // fragmentation-restraint optimization; stock kernels keep
    // unsorted lists whose order we scramble to model an aged
    // machine's churn.
    const bool ca_like =
        kind == PolicyKind::Ca || kind == PolicyKind::Ideal;
    cfg.phys.zone.sortedTopList = ca_like;
    cfg.phys.zone.scrambleSeed = ca_like ? 0 : 0xC0FFEE;
    // Contiguity-steering kernels route their replacement decisions
    // through contiguity-aware victim selection; dormant until an
    // experiment turns reclaimEnabled on (fig_overcommit).
    cfg.contigAwareReclaim = ca_like || kind == PolicyKind::Ranger;
    if (kind == PolicyKind::Eager)
        cfg.phys.zone.maxOrder = ScaledDefaults::kEagerMaxOrder;
    if (kind == PolicyKind::Base4k)
        cfg.thpEnabled = false;
    return cfg;
}

namespace
{

/**
 * Shared run logic: attach an observatory StateSampler for the fault
 * phase, run setup, then compute metrics from the captured snapshots.
 * `add_probes` registers the segment probes (native 1-D or the VM's
 * nested pair); the coverage-tracking probe feeds the timeline.
 */
ContigRunResult
runSampled(Kernel &kernel, Process &proc, Workload &wl,
           std::uint64_t sample_period, std::string domain,
           const std::function<void(obs::StateSampler &)> &add_probes)
{
    ContigRunResult res;

    const std::uint64_t faults0 = kernel.faultStats().faults;
    const std::uint64_t migr0 = kernel.counters().get("migrate.pages");
    const std::uint64_t shoot0 =
        kernel.counters().get("migrate.shootdowns");
    const Cycles cycles0 = kernel.faultStats().totalCycles;
    const std::uint64_t mcyc0 = kernel.counters().get("migrate.cycles") +
                                kernel.counters().get("promote.cycles");

    obs::SamplerConfig scfg;
    scfg.periodFaults = sample_period;
    scfg.captureFreeHist = obs::TimelineSink::global().enabled();
    scfg.domain = std::move(domain);
    obs::StateSampler sampler(scfg);
    add_probes(sampler);
    sampler.attachKernel(kernel);

    wl.setup(proc);

    sampler.detachKernel();
    const std::size_t fault_samples = sampler.snapshots().size();

    // Steady state: the compute phase dominates real executions, so
    // the time-average weighs post-allocation samples too. Daemon
    // policies (ranger, ingens) keep working here.
    const int steady_samples =
        std::max<int>(24, 3 * static_cast<int>(fault_samples));
    for (int i = 0; i < steady_samples; ++i) {
        kernel.policy().onTick(kernel);
        sampler.sampleNow();
    }
    sampler.sampleNow(); // the final, post-steady-state capture

    CoverageTimeline timeline;
    const std::vector<obs::Snapshot> &snaps = sampler.snapshots();
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        const obs::Snapshot &s = snaps[i];
        timeline.addSample(s.coverage);
        // Timeline x-coordinate: faults into the run. Steady-state
        // samples advance a synthetic tick past the fault clock; the
        // final capture sits back on it.
        std::uint64_t x = s.tick - faults0;
        if (i >= fault_samples && i + 1 < snaps.size())
            x += (i - fault_samples) + 1;
        res.cov32Timeline.emplace_back(x, s.coverage.cov32);
    }
    res.final = snaps.back().coverage;
    res.avg = timeline.average();
    res.faults = kernel.faultStats().faults - faults0;
    res.p99FaultLatencyUs = kernel.faultStats().latencyUs.quantile(0.99);
    res.migratedPages = kernel.counters().get("migrate.pages") - migr0;
    res.shootdowns =
        kernel.counters().get("migrate.shootdowns") - shoot0;
    res.allocatedPages = proc.allocatedPages();
    res.touchedPages = proc.touchedPages();
    res.swCycles =
        static_cast<double>(kernel.faultStats().totalCycles - cycles0) +
        static_cast<double>(kernel.counters().get("migrate.cycles") +
                            kernel.counters().get("promote.cycles") -
                            mcyc0);
    return res;
}

} // namespace

NativeSystem::NativeSystem(PolicyKind kind, std::uint64_t seed,
                           const std::function<void(KernelConfig &)>
                               &tweak)
    : kind_(kind), rng_(seed)
{
    KernelConfig cfg = kernelConfigFor(kind);
    if (tweak)
        tweak(cfg);
    kernel_ = std::make_unique<Kernel>(cfg, makePolicy(kind));
    obs::RunInfo::global().note("seed.native_system", seed);
}

void
NativeSystem::hog(double fraction)
{
    hogMemory(*kernel_, fraction, rng_);
}

ContigRunResult
NativeSystem::run(Workload &wl, std::uint64_t sample_period)
{
    Process &proc = kernel_->createProcess(wl.name());
    return runSampled(
        *kernel_, proc, wl, sample_period,
        policyName(kind_) + ":" + wl.name(),
        [&](obs::StateSampler &sampler) {
            sampler.addSegProbe(
                "1d", &proc,
                [&proc] { return extractSegs(proc.pageTable()); }, true);
        });
}

void
NativeSystem::finish(Workload &wl)
{
    Process *proc = wl.process();
    contig_assert(proc, "finish before run");
    wl.teardown();
    kernel_->exitProcess(*proc);
}

VirtSystem::VirtSystem(PolicyKind host_kind, PolicyKind guest_kind,
                       std::uint64_t seed)
    : hostKind_(host_kind), guestKind_(guest_kind),
      host_(std::make_unique<Kernel>(kernelConfigFor(host_kind),
                                     makePolicy(host_kind))),
      rng_(seed)
{
    VmConfig vcfg = ScaledDefaults::vm();
    vcfg.guestKernel.thpEnabled = guest_kind != PolicyKind::Base4k;
    const bool guest_ca = guest_kind == PolicyKind::Ca ||
                          guest_kind == PolicyKind::Ideal;
    vcfg.guestKernel.phys.zone.sortedTopList = guest_ca;
    vcfg.guestKernel.phys.zone.scrambleSeed = guest_ca ? 0 : 0xFACADE;
    if (guest_kind == PolicyKind::Eager)
        vcfg.guestKernel.phys.zone.maxOrder =
            ScaledDefaults::kEagerMaxOrder;
    vm_ = std::make_unique<VirtualMachine>(*host_,
                                           makePolicy(guest_kind), vcfg);
    obs::RunInfo::global().note("seed.virt_system", seed);
}

ContigRunResult
VirtSystem::run(Workload &wl, std::uint64_t sample_period)
{
    Process &proc = vm_->guest().createProcess(wl.name());
    return runSampled(
        vm_->guest(), proc, wl, sample_period,
        policyName(hostKind_) + "/" + policyName(guestKind_) + ":" +
            wl.name(),
        [&](obs::StateSampler &sampler) {
            sampler.attachVm(proc, *vm_);
        });
}

void
VirtSystem::finish(Workload &wl)
{
    Process *proc = wl.process();
    contig_assert(proc, "finish before run");
    wl.teardown();
    vm_->guest().exitProcess(*proc);
}

XlatRunResult
runTranslation(Workload &wl, const VirtualMachine *vm, XlatScheme scheme,
               std::uint64_t accesses, std::uint64_t seed,
               const XlatReplayOpts &opts)
{
    Process *proc = wl.process();
    contig_assert(proc, "runTranslation before workload setup");

    XlatConfig cfg;
    cfg.tlb = ScaledDefaults::tlb();
    cfg.walker = ScaledDefaults::walker();
    cfg.scheme = scheme;
    cfg.spot = ScaledDefaults::spot();
    cfg.rangeTlb = ScaledDefaults::rangeTlb();
    cfg.walker.memoEnabled = opts.memo;
    cfg.engine = opts.engine;

    std::unique_ptr<ReplayEngine> engine;
    if (vm) {
        engine = std::make_unique<ReplayEngine>(cfg, 1, proc->pageTable(),
                                                *vm);
    } else {
        engine = std::make_unique<ReplayEngine>(cfg, 1, proc->pageTable());
    }
    // Extract the offset-run segments once: Rmm/Ds consume them as
    // the range/segment tables, and --attrib uses them as the
    // contiguity-class index. The page tables are static during
    // replay, so one extraction serves both.
    const bool seg_schemes =
        scheme == XlatScheme::Rmm || scheme == XlatScheme::Ds;
    if (seg_schemes || obs::AttribRegistry::enabled()) {
        const std::vector<Seg> segs =
            vm ? extract2d(*proc, *vm) : extractSegs(proc->pageTable());
        if (seg_schemes)
            engine->setSegments(segs);
        if (obs::AttribRegistry::enabled()) {
            engine->setContigIndex(
                std::make_shared<const obs::ContigClassIndex>(segs));
            obs::RunInfo::global().note(
                "attrib.contig_runs",
                static_cast<std::uint64_t>(segs.size()));
        }
    }

    AccessStream stream(wl, accesses, seed);

    obs::RunInfo::global().note("seed.translation", seed);
    obs::RunInfo::global().note("xlat.chunk_accesses",
                                stream.chunkAccesses());
    obs::RunInfo::global().note("xlat.memo", opts.memo);
    obs::RunInfo::global().note(
        "xlat.engine", opts.engine == XlatEngine::Reference
                           ? std::string_view("reference")
                           : std::string_view("batched"));
    // The effective probe-kernel mode: "avx2" only when the batched
    // engine runs on an AVX2-capable CPU not forced scalar
    // (CONTIG_SIMD=0 / --no-simd).
    obs::RunInfo::global().note(
        "xlat.simd",
        std::string_view(simd::modeName(
            opts.engine == XlatEngine::Batched && simd::enabled())));

    // With an open timeline, stream TLB/walker/SpOT counters at 1/8
    // run granularity (the sampler has no kernel, so ticks are access
    // counts and captures are explicit). Captures happen at chunk
    // boundaries: the first boundary at or past each period multiple
    // (timelines are not baseline-gated; see DESIGN.md).
    std::unique_ptr<obs::StateSampler> sampler;
    std::uint64_t xlat_period = 0;
    if (obs::TimelineSink::global().enabled()) {
        obs::SamplerConfig scfg;
        scfg.keepSnapshots = false;
        scfg.domain = "xlat:" + wl.name();
        sampler = std::make_unique<obs::StateSampler>(scfg);
        sampler->attachTranslation(engine->sim());
        xlat_period = std::max<std::uint64_t>(1, accesses / 8);
    }

    std::uint64_t next_sample = xlat_period;
    std::uint64_t last_sample = ~0ull;
    const MemAccess *chunk = nullptr;
    while (std::size_t n = stream.next(chunk)) {
        engine->replayChunk(chunk, n);
        if (sampler && stream.produced() >= next_sample) {
            last_sample = stream.produced();
            sampler->sampleAt(last_sample);
            while (next_sample <= stream.produced())
                next_sample += xlat_period;
        }
    }
    if (sampler && last_sample != accesses)
        sampler->sampleAt(accesses);

    XlatRunResult res;
    res.stats = engine->mergedStats();
    res.overhead = overheadOf(res.stats, ScaledDefaults::perf());
    return res;
}

} // namespace contig
