/**
 * @file
 * The AllocationPolicy interface: the seam where CA paging and the
 * baseline techniques (default THP, eager paging, Ingens, Ranger,
 * ideal) plug into the kernel's demand-paging path. The FaultEngine
 * decides *when* and at *what granularity* to allocate; the policy
 * decides *where* the frames come from.
 */

#ifndef CONTIG_MM_POLICY_HH
#define CONTIG_MM_POLICY_HH

#include <cstdint>
#include <optional>
#include <string>

#include "base/types.hh"
#include "mm/vma.hh"

namespace contig
{

class Kernel;
class Process;
class File;
namespace obs { class MetricSink; }

/**
 * Typed reason an allocation came back empty. `NoHugeBlock` is the
 * retryable failure (no block at the requested huge order; the
 * FaultEngine demotes the fault to 4 KiB); `Oom` means even a base
 * page could not be found.
 */
enum class AllocFail : std::uint8_t
{
    None,        //!< allocation succeeded
    NoHugeBlock, //!< no free block at the requested huge order
    Oom,         //!< no free page at all
};

const char *allocFailName(AllocFail f);

/** Outcome of a policy allocation. */
struct AllocResult
{
    Pfn pfn = kInvalidPfn;
    /** Cycles the placement logic itself cost (search, map updates). */
    Cycles placementCycles = 0;
    /** Why pfn is invalid; None when the allocation succeeded. */
    AllocFail fail = AllocFail::None;

    bool ok() const { return pfn != kInvalidPfn; }

    /** A failed result tagged with the reason for the given order. */
    static AllocResult
    failure(unsigned order)
    {
        AllocResult res;
        res.fail = order > 0 ? AllocFail::NoHugeBlock : AllocFail::Oom;
        return res;
    }
};

/**
 * Terminal per-policy allocation-failure tallies, maintained by the
 * FaultEngine: one count per fault that was demoted from huge to
 * 4 KiB (noHugeBlock) and one per request that found no memory at
 * all (oom — fatal for anon/COW faults, dropped for page-cache
 * fills). Exported under "policy.fallback.*".
 */
struct AllocFailCounts
{
    std::uint64_t noHugeBlock = 0;
    std::uint64_t oom = 0;
};

/**
 * Physical-placement policy for demand paging. Implementations must
 * return blocks obtained from kernel.physMem() so the buddy/contiguity
 * bookkeeping stays consistent.
 */
class AllocationPolicy
{
  public:
    virtual ~AllocationPolicy() = default;

    virtual std::string name() const = 0;

    /** Called when a VMA is created (eager/ideal placement hooks). */
    virtual void onMmap(Kernel &kernel, Process &proc, Vma &vma)
    { (void)kernel; (void)proc; (void)vma; }

    /** Called before a VMA's pages are torn down. */
    virtual void onMunmap(Kernel &kernel, Process &proc, Vma &vma)
    { (void)kernel; (void)proc; (void)vma; }

    /**
     * Allocate 2^order frames to back the fault at vpn inside vma.
     * Returning !ok() at huge order makes the FaultEngine retry at
     * order 0; !ok() at order 0 is an OOM.
     */
    virtual AllocResult allocate(Kernel &kernel, Process &proc, Vma &vma,
                                 Vpn vpn, unsigned order) = 0;

    /**
     * Allocate one page-cache frame for page `file_page` of a file
     * (readahead fills call this with ascending pages). The default
     * takes a plain buddy page on node 0.
     */
    virtual AllocResult allocateFilePage(Kernel &kernel, File &file,
                                         std::uint64_t file_page);

    /**
     * Called after the PTE for a fresh allocation is installed; CA
     * paging uses this to maintain the PTE contiguity bits that gate
     * SpOT's prediction-table fills.
     */
    virtual void onMapped(Kernel &kernel, Process &proc, Vma &vma,
                          Vpn vpn, Pfn pfn, unsigned order)
    { (void)kernel; (void)proc; (void)vma; (void)vpn; (void)pfn;
      (void)order; }

    /**
     * Periodic hook driven by the kernel clock (every
     * Kernel::tickPeriod faults); daemons (Ranger scans, Ingens
     * promotion) live here.
     */
    virtual void onTick(Kernel &kernel) { (void)kernel; }

    /** Whether the FaultEngine may attempt transparent huge faults. */
    virtual bool allowsHugeFaults() const { return true; }

    /**
     * Whether allocateFilePage() steers page-cache placement (CA
     * paging's per-file Offset). Policies that do not are modelled as
     * leaving long-lived cache pages wherever allocation entropy puts
     * them (see systemChurn).
     */
    virtual bool steersFilePlacement() const { return false; }

    /**
     * Report policy-specific metrics (the owning kernel scopes them
     * under "policy."). Policies without interesting state emit
     * nothing.
     */
    virtual void collectMetrics(obs::MetricSink &sink) const
    { (void)sink; }

    // --- fallback accounting (engine-maintained) -----------------------

    const AllocFailCounts &allocFailCounts() const { return failCounts_; }

    /** FaultEngine: record a terminal allocation failure of kind f. */
    void noteAllocFail(AllocFail f);

    /**
     * Emit the fallback.* counters. The kernel calls this alongside
     * collectMetrics() inside the "policy." scope, so overrides of
     * collectMetrics() cannot lose them.
     */
    void collectFailMetrics(obs::MetricSink &sink) const;

  private:
    AllocFailCounts failCounts_;
};

/**
 * Plain buddy allocation at `order` on `node`, with the failure
 * reason filled in — the shared placement of every non-steering
 * policy (default THP, 4K, Ingens, Ranger, eager overflow).
 */
AllocResult buddyAlloc(Kernel &kernel, unsigned order, NodeId node);

/**
 * Default paging with THP: the stock Linux behaviour the paper
 * compares against. Huge (2 MiB) faults when alignment allows, plain
 * buddy allocations, no placement steering.
 */
class DefaultThpPolicy : public AllocationPolicy
{
  public:
    std::string name() const override { return "default-thp"; }

    AllocResult allocate(Kernel &kernel, Process &proc, Vma &vma,
                         Vpn vpn, unsigned order) override;
};

/**
 * Default paging restricted to 4 KiB faults (the paper's "4K"
 * baseline; also the bloat baseline of Table VI).
 */
class Base4kPolicy : public AllocationPolicy
{
  public:
    std::string name() const override { return "base-4k"; }

    bool allowsHugeFaults() const override { return false; }

    AllocResult allocate(Kernel &kernel, Process &proc, Vma &vma,
                         Vpn vpn, unsigned order) override;
};

} // namespace contig

#endif // CONTIG_MM_POLICY_HH
