/**
 * @file
 * The Kernel: one OS instance (host machine, or a guest OS inside a
 * VM). Owns the physical memory, the page cache, the processes and
 * the active AllocationPolicy, and implements the demand-paging fault
 * path that CA paging and the baseline policies steer.
 *
 * Guest kernels are plain Kernel instances over the guest-physical
 * address space; their `backingHook` calls into the host to model
 * nested faults (first-touch of a guest frame raises a host fault).
 */

#ifndef CONTIG_MM_KERNEL_HH
#define CONTIG_MM_KERNEL_HH

#include <functional>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "mm/fault_engine.hh"
#include "mm/page_cache.hh"
#include "mm/policy.hh"
#include "mm/process.hh"
#include "mm/reclaim.hh"
#include "obs/metrics.hh"
#include "phys/phys_mem.hh"

namespace contig
{

/** Cost-model + behaviour knobs for one kernel instance. */
struct KernelConfig
{
    PhysMemConfig phys;
    /** Transparent huge pages enabled (the "THP" configurations). */
    bool thpEnabled = true;
    /** Fixed fault-handling cost (entry, PTE install, bookkeeping). */
    Cycles faultBaseCycles = 2000;
    /** Cost of zeroing one 4 KiB page at allocation. */
    Cycles zeroCyclesPerPage = 2200;
    /** Cost of copying one 4 KiB page (COW, migrations). */
    Cycles copyCyclesPerPage = 2000;
    /** Cycles per microsecond (2.2 GHz machine). */
    double cyclesPerUs = 2200.0;
    /** Policy daemon cadence, in faults. */
    std::uint64_t tickPeriodFaults = 256;
    /** Page-table radix depth: 4, or 5 (LA57) for huge-memory hosts. */
    unsigned pageTableLevels = kPtLevels;
    /**
     * Resolve range touches through the FaultEngine's batched pipeline
     * (one VMA lookup + chunked placement per span). Placements and
     * fault statistics are identical with it off — the switch exists
     * for the golden-equivalence test and for A/B timing.
     */
    bool faultBatching = true;
    /**
     * Observatory sampling interval, in faults. 0 leaves the cadence
     * to whoever attaches a StateSampler (the experiment drivers);
     * nonzero overrides it for every sampler attached to this kernel.
     */
    std::uint64_t obsSamplePeriodFaults = 0;
    /**
     * MetricRegistry prefix this kernel reports under ("kernel" for
     * the host; VirtualMachine sets "guest" for its guest kernel).
     */
    std::string metricsPrefix = "kernel";
    /**
     * Arm the memory-pressure path: per-zone LRU lists + watermarks,
     * the ReclaimEngine (LRU scan, swap-out, THP split-on-reclaim)
     * and the fast-path -> wake-kswapd -> direct-reclaim -> OOM
     * escalation in the allocator slow path. Off (the default), no
     * pressure state exists and every run is byte-identical to the
     * pre-reclaim kernel.
     */
    bool reclaimEnabled = false;
    /**
     * Run kswapd's balancing: a zone below its low watermark is
     * reclaimed back to `high` synchronously at the next fault entry.
     * Off, only allocation-failure direct reclaim runs.
     */
    bool kswapdEnabled = true;
    /**
     * Contiguity-aware victim selection: the LRU scanner scores
     * candidates by the occupancy of their enclosing 2 MiB block and
     * evicts sparse blocks first (restoring large free blocks), and
     * the CA/Ranger policies route busy-target replacements through
     * targeted reclaim. Off: plain second-chance LRU order.
     */
    bool contigAwareReclaim = false;
    /** Swap device model (reclaimEnabled kernels only). */
    SwapCostModel swapCost;
};

class Kernel
{
  public:
    Kernel(const KernelConfig &cfg, std::unique_ptr<AllocationPolicy> policy);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    // --- processes ----------------------------------------------------

    Process &createProcess(const std::string &name, NodeId home_node = 0);
    /** Tear down a process, unmapping and freeing all its memory. */
    void exitProcess(Process &proc);
    std::size_t processCount() const { return processes_.size(); }

    /** Visit every live process. */
    template <typename Fn>
    void
    forEachProcess(Fn &&fn)
    {
        for (auto &p : processes_)
            fn(*p);
    }

    /** The live process with this pid, or nullptr. */
    Process *findProcess(std::uint32_t pid);

    // --- files / page cache --------------------------------------------

    File &createFile(std::uint64_t size_pages);
    PageCache &pageCache() { return pageCache_; }
    /** Evict all page-cache pages (echo 3 > drop_caches). */
    void dropCaches();

    /**
     * read()-style file ingestion: populate the page cache for
     * [page_start, page_start + n_pages) without mapping anything into
     * a process. This is how the workloads load their datasets — the
     * cache pages pollute physical memory (a long-lived fragmentation
     * source, §III-C) but are not part of any process footprint.
     */
    void readFile(File &file, std::uint64_t page_start,
                  std::uint64_t n_pages);

    // --- fault path (used by Process) -----------------------------------

    /** mmap/munmap bookkeeping incl. policy hooks. */
    Vma &mmapAnon(Process &proc, std::uint64_t bytes);
    Vma &mmapFile(Process &proc, std::uint32_t file_id, std::uint64_t bytes,
                  std::uint64_t file_offset_pages);
    void munmap(Process &proc, Vma &vma);

    /** The access entry point: fault / COW-resolve as needed. */
    void touch(Process &proc, Gva gva, Access access);

    /**
     * The demand-paging pipeline every fault flows through. Callers
     * with a whole span to resolve should use its handleRange().
     */
    FaultEngine &faultEngine() { return *engine_; }
    const FaultEngine &faultEngine() const { return *engine_; }

    /**
     * The memory-pressure engine, or nullptr when
     * KernelConfig::reclaimEnabled is off (the hooks below compile to
     * one null test in that case).
     */
    ReclaimEngine *reclaim() { return reclaim_.get(); }
    const ReclaimEngine *reclaim() const { return reclaim_.get(); }

    /** COW-share every anon mapping of parent into child (fork). */
    void forkInto(Process &parent, Process &child);

    // --- services for policies ------------------------------------------

    PhysicalMemory &physMem() { return physMem_; }
    const PhysicalMemory &physMem() const { return physMem_; }
    AllocationPolicy &policy() { return *policy_; }

    /**
     * Take ownership of a freshly buddy-allocated block: set owner
     * metadata, refcount the head and trigger the backing hook. Every
     * allocation that ends up mapped must pass through here.
     */
    void claimFrames(Pfn pfn, unsigned order, FrameOwner kind,
                     std::uint32_t owner_id, Addr owner_vaddr);

    /** Increment the share count of a mapped block (COW, page cache). */
    void getFrame(Pfn pfn);
    /** Drop one reference; frees the block back to buddy at zero. */
    void putFrame(Pfn pfn, unsigned order);

    /**
     * Allocate one frame for kernel metadata (page-table nodes).
     * Served from a pooled chunk (the per-CPU page-list analogue) so
     * metadata allocations do not nibble single pages next to CA
     * paging's data targets.
     */
    Pfn allocKernelFrame(NodeId node = 0);
    void freeKernelFrame(Pfn pfn);
    /** Pages currently reserved by the kernel metadata pool. */
    std::uint64_t kernelPoolPages() const { return kernelPoolPages_; }

    // --- clock / observation ---------------------------------------------

    /** Simulated time = faults handled so far (all processes). */
    std::uint64_t now() const { return engine_->now(); }

    const KernelConfig &config() const { return cfg_; }
    FaultStats &faultStats() { return engine_->stats(); }
    const FaultStats &faultStats() const { return engine_->stats(); }
    CounterSet &counters() { return counters_; }

    /**
     * Report this kernel's metrics: fault-path stats, the ad-hoc
     * counters, per-zone buddy/contiguity-map state and the active
     * policy's stats. Registered with MetricRegistry::global() under
     * config().metricsPrefix for the kernel's lifetime.
     */
    void collectMetrics(obs::MetricSink &sink) const;

    /** Observer invoked after every fault (timeline sampling). */
    std::function<void(const FaultEvent &)> onFault;

    /**
     * Guest kernels: invoked whenever guest frames [pfn, pfn+2^order)
     * are allocated, to raise the corresponding nested (host) faults.
     */
    std::function<void(Pfn, unsigned)> backingHook;

  private:
    void unmapVmaPages(Process &proc, Vma &vma);

    /** Fan the kernel-level pressure knobs out to the zone config. */
    static KernelConfig normalized(KernelConfig cfg);

    KernelConfig cfg_;
    PhysicalMemory physMem_;
    std::unique_ptr<AllocationPolicy> policy_;
    PageCache pageCache_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::uint32_t nextPid_ = 1;
    CounterSet counters_;
    /**
     * The fault pipeline (owns the fault stats and phase timers).
     * Declared before metricSource_: the collect callback reads it,
     * so it must outlive the registration.
     */
    std::unique_ptr<FaultEngine> engine_;
    /** The memory-pressure path (reclaimEnabled kernels only). */
    std::unique_ptr<ReclaimEngine> reclaim_;
    /** Registration with the global MetricRegistry (absorb on death). */
    obs::MetricSource metricSource_;

    /** Refill the metadata pool from the buddy; false when it is dry. */
    bool refillPool(NodeId node);

    /** Kernel metadata pool (see allocKernelFrame). */
    std::vector<Pfn> pool_;
    std::uint64_t kernelPoolPages_ = 0;
    /** Chunk order for pool refills (64 pages, like a Linux pcp batch). */
    static constexpr unsigned kKernelPoolOrder = 6;
};

} // namespace contig

#endif // CONTIG_MM_KERNEL_HH
