/**
 * @file
 * The FaultEngine: the demand-paging pipeline between the MMU-facing
 * entry points (Process::touch, readFile, fork, nested backing) and
 * the AllocationPolicy / buddy allocator. Every fault flows through
 * the same explicit stages:
 *
 *   classify -> granularity decision -> policy placement ->
 *   claim/zero-copy -> PTE install -> post-map hooks
 *
 * carried by a FaultRequest (what the caller wants resolved) and a
 * FaultContext (what each stage decided). The engine owns the fault
 * statistics, the fault/daemon phase timers and the policy-daemon
 * clock; the Kernel shrinks to ownership and frame/metadata services.
 *
 * The single-fault API is the reference: one touch(), or one
 * one-page readFile(), per page. handleRange() resolves a whole vpn
 * span with one VMA lookup, tick-aligned chunks of policy allocate()
 * calls and grouped PTE installs (PageTable::RunMapper); readFile()
 * unions readahead windows into one fill per run. Both call the
 * single fault's install and out-of-memory code, and on reclaim-off
 * kernels (a span probes the watermarks once per chunk, not once per
 * page) they place and account what the reference would; DESIGN.md
 * "Fault pipeline" names the one known gap. The host kernel, guest
 * kernels (nested backing faults), the page cache (readahead fills)
 * and fork's COW sharing all go through this one pipeline.
 *
 * The engine resolves one fault at a time: policy-daemon ticks and
 * observatory samples run inline after the fault that makes them due
 * (see DESIGN.md "Execution model").
 */

#ifndef CONTIG_MM_FAULT_ENGINE_HH
#define CONTIG_MM_FAULT_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "mm/policy.hh"
#include "mm/process.hh"
#include "obs/phase.hh"

namespace contig
{

class File;
class Kernel;
struct KernelConfig;
struct Mapping;

namespace obs
{
class FaultAttribution;
class StateSampler;
} // namespace obs

/** What a fault resolves. */
enum class FaultKind : std::uint8_t
{
    Anon, //!< first touch of anonymous memory (zero-filled)
    Cow,  //!< write to a shared mapping (copy + remap)
    File, //!< first touch of a file mapping (page-cache lookup)
};

/** How handleRange() accounts touched pages. */
enum class TouchNote : std::uint8_t
{
    /** Every page of the span counts as touched (touchRange). */
    AllPages,
    /**
     * Only fault origins count: one probe per huge stride plus a
     * sweep of still-unmapped pages — the nested-backing semantics
     * (a guest frame allocation touches the host once per huge
     * region it spans, not once per page).
     */
    Origins,
};

/** Aggregate fault-path statistics (Table V inputs). */
struct FaultStats
{
    std::uint64_t faults = 0;
    std::uint64_t hugeFaults = 0;
    std::uint64_t baseFaults = 0;
    std::uint64_t cowFaults = 0;
    std::uint64_t fileFaults = 0;
    Cycles totalCycles = 0;
    Percentiles latencyUs;
};

/**
 * What a caller asks the engine to resolve: a vpn span of one
 * process. `vma` is an optional hint; spans may cross VMA boundaries
 * (the engine re-resolves per VMA).
 */
struct FaultRequest
{
    Process *proc = nullptr;
    Vma *vma = nullptr;
    Vpn vpn = 0;
    std::uint64_t pages = 1;
    Access access = Access::Write;
};

/**
 * Per-fault resolution state flowing through the pipeline stages:
 * the granularity stage fills base/order, the placement stage fills
 * alloc (and fallback when a huge request was demoted), the
 * accounting stage fills cycles.
 */
struct FaultContext
{
    Vpn vpn = 0;        //!< faulting page (the origin)
    Vpn base = 0;       //!< order-aligned install base
    unsigned order = 0; //!< resolved granularity (0 or kHugeOrder)
    AllocResult alloc;
    AllocFail fallback = AllocFail::None; //!< demotion reason, if any
    Cycles cycles = 0;
};

/** Batch-path observability ("fault.batch.*"). */
struct FaultBatchStats
{
    std::uint64_t rangeRequests = 0; //!< handleRange() calls
    std::uint64_t rangePages = 0;    //!< pages those spans covered
    std::uint64_t chunks = 0;        //!< tick-aligned commit chunks
    std::uint64_t batchedFaults = 0; //!< faults a chunk placed in one pass
    Log2Histogram chunkPages;        //!< chunk-size distribution
    /** Pages filled per page-cache readahead batch. */
    Log2Histogram readaheadPages;
};

class FaultEngine
{
  public:
    explicit FaultEngine(Kernel &kernel);

    /** Folds the cost-attribution table into AttribRegistry::global(). */
    ~FaultEngine();

    FaultEngine(const FaultEngine &) = delete;
    FaultEngine &operator=(const FaultEngine &) = delete;

    // --- single-fault path ----------------------------------------------

    /** The access entry point: fault / COW-resolve vpn as needed. */
    void touch(Process &proc, Gva gva, Access access);

    // --- span paths -----------------------------------------------------

    /**
     * Resolve every fault a walk of the span would raise: one VMA
     * lookup per VMA, order-0 gaps in chunks that never cross a
     * policy-tick boundary, grouped installs. Placements, fault
     * statistics and policy state match one touch() per page, within
     * the limits the file comment states.
     */
    void handleRange(const FaultRequest &span,
                     TouchNote note = TouchNote::AllPages);

    /**
     * read()-style page-cache population for [page_start,
     * page_start + n_pages): the readahead windows the requested
     * pages open, merged into one fill per run. Fatal if a requested
     * page cannot be cached.
     */
    void readFile(File &file, std::uint64_t page_start,
                  std::uint64_t n_pages);

    /**
     * fork(): COW-share every leaf of parent's pvma into the child's
     * already-created cvma (write-protect parent, map shared in
     * child, bump share counts).
     */
    void shareCowRange(Process &parent, Process &child, Vma &pvma,
                       Vma &cvma);

    // --- services for pre-populating policies (eager paging) ------------

    /**
     * Claim a buddy block the policy already allocated and install it
     * over [vpn, vpn + 2^order), at 2 MiB grain where alignment
     * allows, 4 KiB otherwise (grouped installs).
     */
    void installPrepared(Process &proc, Vma &vma, Vpn vpn, Pfn pfn,
                         unsigned order);

    /**
     * Charge one bulk fault-like stall for `pages` freshly zeroed
     * pages (eager paging's mmap stall: one fault event, the whole
     * zeroing cost).
     */
    void chargeBulkStall(std::uint64_t pages);

    // --- clock / observation --------------------------------------------

    /** Simulated time = faults handled so far. */
    std::uint64_t now() const { return clock_; }

    FaultStats &stats() { return stats_; }
    const FaultStats &stats() const { return stats_; }

    /**
     * Register/clear the observatory sampler ticked after every
     * fault (StateSampler::attachKernel). Costs the fault path one
     * null-pointer branch while cleared.
     */
    void setSampler(obs::StateSampler *sampler) { sampler_ = sampler; }
    obs::StateSampler *sampler() const { return sampler_; }

    /** Report fault.batch.* / readahead metrics (kernel-scoped). */
    void collectMetrics(obs::MetricSink &sink) const;

  private:
    // --- pipeline stages -------------------------------------------------

    /**
     * May an anon fault at vpn take a THP? THP on, a policy that
     * takes huge faults, the aligned 2 MiB block inside the VMA and
     * wholly unmapped.
     */
    bool hugeFaultAllowed(const Process &proc, const Vma &vma,
                          Vpn vpn) const;
    /** Granularity decision for an anon fault at vpn (THP or 4 KiB). */
    void classifyAnon(Process &proc, Vma &vma, FaultContext &ctx) const;
    /** Policy placement incl. direct reclaim and huge demotion. */
    void placeAnon(Process &proc, Vma &vma, FaultContext &ctx);
    /**
     * The order-0 slow path after a failed allocation at ctx.base:
     * reclaimRetry() on reclaim kernels, otherwise
     * dropCachesAndRetry(). Out of memory is fatal.
     */
    void recoverBaseAlloc(Process &proc, Vma &vma, FaultContext &ctx);
    /**
     * Reclaim-off direct reclaim: drop the clean page cache, count
     * "reclaim.direct" and retry the allocation once.
     */
    AllocResult dropCachesAndRetry(Process &proc, Vma &vma, Vpn base,
                                   unsigned order);
    /**
     * Memory-pressure escalation for a failed allocation at (base,
     * order): wake kswapd, then up to four direct-reclaim rounds with
     * an allocation retry after each, then dropping the clean page
     * cache as the last resort before the caller declares OOM. Adds
     * the reclaim stall to res.placementCycles on success. Reclaim
     * kernels only (kernel_.reclaim() != nullptr).
     */
    void reclaimRetry(Process &proc, Vma &vma, Vpn base, unsigned order,
                      AllocResult &res);
    /**
     * claim + PTE install + accounting for a placed anon fault. A
     * chunk passes its RunMapper for its order-0 installs.
     */
    void installAnon(Process &proc, Vma &vma, FaultContext &ctx,
                     PageTable::RunMapper *mapper = nullptr);
    /** Map a cached file page at vpn + accounting (a file fault). */
    void installFile(Process &proc, Vma &vma, Vpn vpn, Pfn pfn,
                     PageTable::RunMapper *mapper = nullptr);

    /** touch() without the entry watermark probe (range paths). */
    void touchOne(Process &proc, Gva gva, Access access);

    void anonFault(Process &proc, Vma &vma, Vpn vpn);
    void cowFault(Process &proc, Vma &vma, Vpn vpn, const Mapping &m);
    void fileFault(Process &proc, Vma &vma, Vpn vpn);
    void finishFault(unsigned order, Cycles cycles, bool cow, bool file,
                     AllocFail fallback = AllocFail::None);

    // --- span internals --------------------------------------------------

    /** Chunked resolution of [start, end) inside one VMA. */
    void resolveSpan(Process &proc, Vma &vma, Vpn start, Vpn end,
                     Access access, bool note_all);
    Vpn resolveAnonGap(Process &proc, Vma &vma, Vpn gap_start,
                       Vpn gap_end, Vpn span_end, bool note_all);
    void resolveFileGap(Process &proc, Vma &vma, Vpn gap_start,
                        Vpn gap_end);
    /**
     * Place every queued order-0 fault up to the first failure, then
     * install them; the failing fault takes the order-0 slow path.
     * Placements never see installs: CA's targeted reclaim reads LRU
     * state that claimFrames() changes.
     */
    void commitAnonChunk(Process &proc, Vma &vma,
                         std::vector<FaultContext> &chunk);
    /** Faults remaining until the next policy tick (always >= 1). */
    std::uint64_t tickBudget() const;

    // --- page cache ------------------------------------------------------

    /**
     * Ensure file_page (and its readahead window) is cached; returns
     * its frame, or kInvalidPfn on OOM.
     */
    Pfn ensureFileCached(File &file, std::uint64_t file_page);

    /**
     * Fill every uncached page of [begin, end) of `file` through the
     * policy's allocateFilePage(). Stops at the first allocation
     * failure.
     */
    void fillFileSpan(File &file, std::uint64_t begin, std::uint64_t end);

    Kernel &kernel_;
    const KernelConfig &cfg_;
    FaultStats stats_;
    FaultBatchStats batch_;
    /**
     * (kind x order x fallback) cost attribution; null unless
     * AttribRegistry::enabled() when the engine was built.
     */
    std::unique_ptr<obs::FaultAttribution> attrib_;
    obs::StateSampler *sampler_ = nullptr;

    /** Simulated clock: faults completed. */
    std::uint64_t clock_ = 0;

    /** Phase timers (fault path, policy daemons, batch stages). */
    obs::Phase faultPhase_;
    obs::Phase daemonPhase_;
    obs::Phase placePhase_;
    obs::Phase installPhase_;
    obs::Phase fillPhase_;
};

} // namespace contig

#endif // CONTIG_MM_FAULT_ENGINE_HH
