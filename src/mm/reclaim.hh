/**
 * @file
 * The ReclaimEngine: the memory-pressure side of the kernel, sibling
 * of the FaultEngine. It implements the Linux-shaped reclaim pipeline
 * the allocation slow path escalates through when a zone runs dry:
 *
 *   fast path -> wake kswapd -> direct reclaim -> (demote) -> OOM
 *
 * Victims come off per-zone inactive/active LRU lists (second-chance
 * referenced bits, block-head grain: one list node per mapped leaf).
 * Anonymous victims are swapped out against a modelled swap device
 * (per-page I/O cost, bounded swap cache); THP victims are split into
 * 512 base mappings first, exactly like split_huge_page on the Linux
 * reclaim path; clean page-cache victims are dropped. kswapd's
 * balancing (zones back to their `high` watermark) runs synchronously
 * at fault entry, which keeps every run deterministic.
 *
 * The scanner reads a candidate frame's owner triple, then validates
 * it against the owner's page table before touching anything: an LRU
 * handle may name a block that was freed or remapped since it was
 * listed.
 *
 * None of this state exists when KernelConfig::reclaimEnabled is off:
 * the kernel never constructs a ReclaimEngine, the claim/free hooks
 * compile to a null-pointer test, and the allocation path is
 * byte-identical to the pre-reclaim kernel (golden-gated).
 */

#ifndef CONTIG_MM_RECLAIM_HH
#define CONTIG_MM_RECLAIM_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "base/types.hh"
#include "phys/zone.hh"

namespace contig
{

class Kernel;
class Process;
class Vma;

namespace obs
{
class MetricSink;
} // namespace obs

/**
 * Modelled swap-device costs. Swap-out is asynchronous writeback
 * (cheap, charged to the reclaimer); swap-in is a synchronous read
 * stall charged to the refaulting fault. Recently swapped-out pages
 * sit in a bounded FIFO swap cache whose hits cost a memcpy, not an
 * I/O.
 */
struct SwapCostModel
{
    Cycles outCyclesPerPage = 8000;
    Cycles inCyclesPerPage = 60000;
    Cycles cacheHitCycles = 3000;
    std::uint64_t cachePages = 1024;
};

/**
 * Reclaim-path counters ("reclaim.*" metrics). The simulator runs one
 * thread; the fields stay atomics only because readers (perfbench,
 * fig_overcommit, micro_reclaim_path, the observatory) bind them as
 * `const std::atomic<std::uint64_t> &` and load() them. Every update
 * is a relaxed bump.
 */
struct ReclaimStats
{
    std::atomic<std::uint64_t> scans{0};        //!< LRU entries examined
    std::atomic<std::uint64_t> rotations{0};    //!< second-chance promotions
    std::atomic<std::uint64_t> deactivations{0}; //!< active -> inactive moves
    std::atomic<std::uint64_t> reclaimed{0};    //!< pages freed, any kind
    std::atomic<std::uint64_t> swapOuts{0};     //!< anon pages swapped out
    std::atomic<std::uint64_t> refaults{0};     //!< swap-ins on touch
    std::atomic<std::uint64_t> swapCacheHits{0};
    std::atomic<std::uint64_t> thpSplits{0};    //!< huge leaves split
    std::atomic<std::uint64_t> pagecacheReclaimed{0};
    std::atomic<std::uint64_t> kswapdWakes{0};
    std::atomic<std::uint64_t> kswapdRuns{0};
    std::atomic<std::uint64_t> directReclaims{0};
    std::atomic<std::uint64_t> targetedReclaims{0};
    std::atomic<std::uint64_t> directCycles{0};
    std::atomic<std::uint64_t> kswapdCycles{0};
    std::atomic<std::uint64_t> lowHits{0};      //!< entries below low wm
    std::atomic<std::uint64_t> minHits{0};      //!< entries below min wm
    std::atomic<std::uint64_t> pinnedSkips{0};  //!< unreclaimable victims
    /** Page-cache victims skipped during a page-cache fill. */
    std::atomic<std::uint64_t> busySkips{0};
};

class ReclaimEngine
{
  public:
    explicit ReclaimEngine(Kernel &kernel);

    ReclaimEngine(const ReclaimEngine &) = delete;
    ReclaimEngine &operator=(const ReclaimEngine &) = delete;

    /** What one reclaim pass achieved. */
    struct Progress
    {
        std::uint64_t freed = 0; //!< base pages returned to the buddy
        Cycles cycles = 0;       //!< modelled reclaim cost
    };

    // --- hooks from the kernel's frame lifecycle -------------------------

    /**
     * A freshly buddy-allocated block was claimed (Kernel::
     * claimFrames). Anon and page-cache blocks enter the owning
     * zone's inactive list at the MRU end; page-table frames are
     * kernel-pinned and never listed.
     */
    void onClaim(Pfn pfn, unsigned order, FrameOwner kind);

    /** The block headed at pfn is going back to the buddy. */
    void onFree(Pfn pfn);

    /** Second-chance bit: the mapped block at head was accessed. */
    void noteReferenced(Pfn head);

    // --- swap ------------------------------------------------------------

    /**
     * A fault is installing [base, base + 2^order) for `pid`: erase
     * any swap entries the range covers and return the modelled
     * swap-in stall (0 when nothing was swapped).
     */
    Cycles chargeSwapIn(std::uint32_t pid, Vpn base, unsigned order);

    /** munmap/exit: drop swap entries of [start, start+pages) of pid. */
    void dropVmaRange(std::uint32_t pid, Vpn start, std::uint64_t pages);

    /** Pages currently swapped out across all processes. */
    std::uint64_t swappedPages() const { return swappedPages_; }

    // --- pressure entry points -------------------------------------------

    /**
     * Fault-entry watermark probe: below `low`, and with
     * KernelConfig::kswapdEnabled, kswapd's balancing brings the node
     * back to `high` synchronously.
     */
    void checkWatermarks(NodeId node);

    /**
     * The allocation slow path asks for background reclaim. Counted
     * (kswapd_wakes) only: the balancing itself happens at the next
     * fault entry's checkWatermarks().
     */
    void
    noteKswapdWake()
    {
        stats_.kswapdWakes.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Direct reclaim: synchronously free >= want_pages base pages
     * from `node` (falling back to other nodes), called by the
     * allocation slow path.
     */
    Progress directReclaim(NodeId node, std::uint64_t want_pages);

    /**
     * Re-entrancy guard for the page-cache fill path: while one of
     * these is live, any reclaim skips page-cache victims — otherwise
     * it could evict the very pages the enclosing readahead run just
     * installed. A null engine (reclaim off) makes it a no-op.
     */
    class PageCacheFillScope
    {
      public:
        explicit PageCacheFillScope(ReclaimEngine *rec) : rec_(rec)
        {
            if (rec_)
                ++rec_->fillDepth_;
        }
        ~PageCacheFillScope()
        {
            if (rec_)
                --rec_->fillDepth_;
        }
        PageCacheFillScope(const PageCacheFillScope &) = delete;
        PageCacheFillScope &operator=(const PageCacheFillScope &) = delete;

      private:
        ReclaimEngine *rec_;
    };

    /**
     * Bumped on every eviction that unmaps page-table leaves (anon
     * evictions and THP splits). Unmapping can free empty page-table
     * nodes, so batch installers holding a PageTable::RunMapper
     * snapshot this around anything that can reclaim and invalidate
     * the mapper's cached node when it moved.
     */
    std::uint64_t unmapEpoch() const { return unmapEpoch_; }

    /**
     * Targeted (contiguity-aware) reclaim: try to evict every
     * reclaimable block inside [base, base + 2^order) so the span can
     * be allocated as one free block — how CA paging / Ranger route
     * their replacement decisions through the reclaim machinery.
     * Returns the base pages freed.
     */
    std::uint64_t reclaimRange(Pfn base, unsigned order);

    /** Victim selection prefers blocks that restore large free runs. */
    bool contigAware() const { return contigAware_; }

    // --- observation ------------------------------------------------------

    const ReclaimStats &stats() const { return stats_; }

    /** Report reclaim.* (called under the kernel's "reclaim" scope). */
    void collectMetrics(obs::MetricSink &sink) const;

  private:
    /** Outcome of looking at one popped LRU candidate. */
    enum class Victim : std::uint8_t
    {
        Freed,    //!< pages returned to the buddy
        Split,    //!< THP split into 512 inactive base candidates
        Rotated,  //!< referenced bit seen; promoted to active
        Requeued, //!< skipped during a page-cache fill; back to MRU
        Pinned,   //!< unreclaimable; left off every list
        Gone,     //!< freed/re-claimed since the pop; nothing to do
    };

    Victim scanOne(Zone &zone, const Zone::LruEntry &e, Progress &out);
    Victim evictAnon(Zone &zone, Pfn head, unsigned order, Progress &out);
    Victim evictPageCache(Zone &zone, Pfn head, Progress &out);
    /** Split one validated huge leaf into 512 base mappings. */
    void splitHuge(Zone &zone, Process &proc, Vpn base, Pfn head);
    /** Record a swap-out of (pid, vpn); returns the modelled cost. */
    Cycles recordSwapOut(std::uint32_t pid, Vpn vpn);

    /**
     * Shrink one zone by ~target base pages: demote active overflow,
     * pop inactive-tail batches, second-chance or evict each.
     */
    Progress shrinkZone(Zone &zone, std::uint64_t target);

    /** Occupied-page probe of the enclosing 2 MiB block (0..64). */
    unsigned contigScore(Pfn head) const;

    /** Bring the zone of `node` back to its high watermark. */
    Progress balanceNode(NodeId node);

    Kernel &kernel_;
    const bool contigAware_;
    const SwapCostModel cost_;
    ReclaimStats stats_;
    std::uint64_t unmapEpoch_ = 0;
    /** Live PageCacheFillScope nesting depth. */
    unsigned fillDepth_ = 0;

    // --- swap state (slot ids model disk blocks) -------------------------
    /** pid -> vpn -> swap slot. */
    std::unordered_map<std::uint32_t,
                       std::unordered_map<Vpn, std::uint64_t>>
        swapMap_;
    std::uint64_t nextSlot_ = 0;
    /** FIFO swap cache of recent slots (hits skip the I/O stall). */
    std::deque<std::uint64_t> swapCacheFifo_;
    std::unordered_set<std::uint64_t> swapCacheSet_;
    std::uint64_t swappedPages_ = 0;
};

} // namespace contig

#endif // CONTIG_MM_RECLAIM_HH
