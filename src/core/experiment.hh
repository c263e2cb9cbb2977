/**
 * @file
 * Experiment drivers: policy factory, native/virtualized systems with
 * fault-sampled coverage timelines, and the translation-overhead
 * runner. The bench binaries (one per paper table/figure) compose
 * these pieces; see DESIGN.md's experiment index.
 */

#ifndef CONTIG_CORE_EXPERIMENT_HH
#define CONTIG_CORE_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "contig/analysis.hh"
#include "core/config.hh"
#include "workloads/workloads.hh"

namespace contig
{

/** The allocation techniques compared throughout §VI. */
enum class PolicyKind
{
    Thp,    //!< default paging with THP
    Base4k, //!< default paging, 4 KiB only
    Ca,     //!< contiguity-aware paging (the paper's contribution)
    Eager,  //!< RMM eager pre-allocation
    Ingens, //!< utilization-based async promotion
    Ranger, //!< async defragmentation daemon
    Ideal,  //!< offline best-fit upper bound
};

std::unique_ptr<AllocationPolicy> makePolicy(PolicyKind kind);
std::string policyName(PolicyKind kind);

/** Host kernel config for a policy (eager raises MAX_ORDER). */
KernelConfig kernelConfigFor(PolicyKind kind);

/** Result of one contiguity run (a Fig. 7/8/12 bar group). */
struct ContigRunResult
{
    CoverageMetrics avg;    //!< time-averaged over execution
    CoverageMetrics final;  //!< at completion
    std::uint64_t faults = 0;
    double p99FaultLatencyUs = 0.0;
    std::uint64_t migratedPages = 0;
    std::uint64_t shootdowns = 0;
    /** allocated - touched pages, vs the same run with 4 KiB paging. */
    std::uint64_t allocatedPages = 0;
    std::uint64_t touchedPages = 0;
    /** Software cycles spent on faults + daemons (Fig. 11). */
    double swCycles = 0.0;
    /** (fault count, cov32) samples (Figs. 1b/1c/10 timelines). */
    std::vector<std::pair<std::uint64_t, double>> cov32Timeline;
};

/**
 * A native machine under one policy. Create once; run one or more
 * workloads (consecutively or interleaved) on it.
 */
class NativeSystem
{
  public:
    /**
     * @param tweak optional hook applied to kernelConfigFor(kind)
     *        before the kernel is built — overcommit experiments use
     *        it to shrink physical memory and enable reclaim without
     *        duplicating the system plumbing.
     */
    explicit NativeSystem(PolicyKind kind, std::uint64_t seed = 1,
                          const std::function<void(KernelConfig &)>
                              &tweak = {});

    Kernel &kernel() { return *kernel_; }
    PolicyKind policy() const { return kind_; }

    /** Fragment the machine with the hog (fraction of total memory). */
    void hog(double fraction);

    /**
     * Run a workload to completion in a fresh process, sampling
     * coverage every `sample_period` faults. The process stays alive
     * (its mappings define the final metrics) until finish() or the
     * next run's teardown.
     */
    ContigRunResult run(Workload &wl,
                        std::uint64_t sample_period = 4096);

    /** Tear down the workload's process (frees its memory). */
    void finish(Workload &wl);

  private:
    PolicyKind kind_;
    std::unique_ptr<Kernel> kernel_;
    Rng rng_;
};

/**
 * A virtualized system: host kernel + one VM, each under its own
 * policy. Workloads run inside the guest; coverage is measured on
 * the full 2-D (gVA -> hPA) mappings via the VMI extractor.
 */
class VirtSystem
{
  public:
    VirtSystem(PolicyKind host_kind, PolicyKind guest_kind,
               std::uint64_t seed = 1);

    Kernel &host() { return *host_; }
    Kernel &guest() { return vm_->guest(); }
    VirtualMachine &vm() { return *vm_; }

    ContigRunResult run(Workload &wl,
                        std::uint64_t sample_period = 4096);
    void finish(Workload &wl);

  private:
    PolicyKind hostKind_;
    PolicyKind guestKind_;
    std::unique_ptr<Kernel> host_;
    std::unique_ptr<VirtualMachine> vm_;
    Rng rng_;
};

/** Translation-overhead run result (Fig. 13/14, Table VII inputs). */
struct XlatRunResult
{
    XlatStats stats;
    OverheadResult overhead;
};

/** Replay-engine knobs for runTranslation (bench_io's xlat flags). */
struct XlatReplayOpts
{
    /** Walk-traversal memo (pure wall-clock knob; results identical). */
    bool memo = true;
    /**
     * Replay inner loop (pure wall-clock knob; results identical).
     * Reference retains the historical per-access scalar loop as the
     * denominator of the SoA/SIMD speedup gate.
     */
    XlatEngine engine = XlatEngine::Batched;
};

/**
 * Replay `accesses` steady-state accesses of an already-set-up
 * workload through the translation replay engine: a live
 * AccessStream feeds ReplayEngine::replayChunk one chunk at a time.
 * Pass the VM for virtualized runs, nullptr for native. Simulated
 * results depend only on (workload state, scheme, accesses, seed) —
 * the memo and the engine never change them.
 */
XlatRunResult runTranslation(Workload &wl, const VirtualMachine *vm,
                             XlatScheme scheme, std::uint64_t accesses,
                             std::uint64_t seed = 99,
                             const XlatReplayOpts &opts = {});

} // namespace contig

#endif // CONTIG_CORE_EXPERIMENT_HH
