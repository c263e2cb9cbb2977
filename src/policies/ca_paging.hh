/**
 * @file
 * Contiguity-Aware (CA) paging — the paper's software contribution
 * (§III). A drop-in AllocationPolicy that steers demand-paging
 * allocations so contiguous virtual pages land on contiguous physical
 * frames:
 *
 *  - first fault of a VMA: next-fit placement over the per-zone
 *    contiguity_map, keyed by the VMA size; the faulting page gets the
 *    start of the chosen free region and the resulting Offset
 *    (vpn - pfn) is recorded in the vma;
 *  - later faults: the nearest recorded Offset names a target frame;
 *    if the target is free it is carved out of the buddy allocator
 *    (extending the contiguous mapping), otherwise huge faults trigger
 *    a sub-VMA re-placement keyed by the remaining unmapped size and
 *    4 KiB faults fall back to the default allocation path;
 *  - page-cache readahead allocations get the same treatment with one
 *    Offset per file;
 *  - after each successful allocation the policy maintains the PTE
 *    contiguity bits that gate SpOT's prediction-table fills
 *    (§IV-C "Preventing thrashing").
 */

#ifndef CONTIG_POLICIES_CA_PAGING_HH
#define CONTIG_POLICIES_CA_PAGING_HH

#include <cstdint>

#include "mm/policy.hh"
#include "mm/process.hh"

namespace contig
{

/** Tunables of CA paging (the defaults follow the paper). */
struct CaPagingConfig
{
    /**
     * Minimum contiguous run (in base pages) before PTEs get the
     * contiguity bit (the paper empirically uses 32).
     */
    std::uint64_t markThresholdPages = 32;
    /** Maintain PTE contiguity bits at all (off for pure-SW studies). */
    bool markContigBits = true;
    /** Modelled cost of one contiguity-map scan step. */
    Cycles cyclesPerScanStep = 25;
    /** Modelled fixed cost of one placement decision. */
    Cycles placementBaseCycles = 150;
};

/** Observable CA paging behaviour (tests + benches). */
struct CaPagingStats
{
    std::uint64_t placements = 0;   //!< first-fault placements
    /** Re-placements after failures. */
    std::uint64_t subVmaPlacements = 0;
    std::uint64_t offsetHits = 0;   //!< target free and taken
    std::uint64_t offsetMisses = 0; //!< target occupied/invalid
    std::uint64_t fallbacks = 0;    //!< 4 KiB default fallbacks
    std::uint64_t filePlacements = 0;
    std::uint64_t markedPtes = 0;   //!< contiguity bits set
    /** Targets taken only after contiguity-aware reclaim evicted the
     *  occupants (reclaim kernels with contigAwareReclaim only). */
    std::uint64_t reclaimTakes = 0;
};

class CaPagingPolicy : public AllocationPolicy
{
  public:
    explicit CaPagingPolicy(const CaPagingConfig &cfg = {});

    std::string name() const override { return "ca-paging"; }

    AllocResult allocate(Kernel &kernel, Process &proc, Vma &vma,
                         Vpn vpn, unsigned order) override;

    AllocResult allocateFilePage(Kernel &kernel, File &file,
                                 std::uint64_t file_page) override;

    bool steersFilePlacement() const override { return true; }

    void onMapped(Kernel &kernel, Process &proc, Vma &vma, Vpn vpn,
                  Pfn pfn, unsigned order) override;

    const CaPagingStats &stats() const { return stats_; }
    const CaPagingConfig &config() const { return cfg_; }

    void collectMetrics(obs::MetricSink &sink) const override;

  protected:
    /**
     * Run a placement decision: next-fit over the contiguity maps
     * (home node first), allocate the region's first block at `order`,
     * and return it. req_pages is the placement key; `owner`
     * identifies the requester (VMA id, or kCaFileOwner for files) so
     * reservation-aware subclasses can scope their claims. The base
     * implementation ignores it (best-effort, as in the paper).
     */
    virtual AllocResult place(Kernel &kernel, NodeId home,
                              std::uint64_t req_pages, unsigned order,
                              std::uint64_t owner);

    /** Try to take the exact block [target, target+2^order). */
    bool takeTarget(Kernel &kernel, Pfn target, unsigned order);

    /** Owner key used for page-cache placements. */
    static constexpr std::uint64_t kCaFileOwner = ~std::uint64_t{0};

    /** Globally unique placement-owner key for a process's VMA. */
    static std::uint64_t
    placementOwner(const Process &proc, const Vma &vma)
    {
        return (static_cast<std::uint64_t>(proc.pid()) << 32) |
               vma.id();
    }

    CaPagingStats stats_;

  private:
    CaPagingConfig cfg_;
};

} // namespace contig

#endif // CONTIG_POLICIES_CA_PAGING_HH
