/**
 * @file
 * A Zone couples one buddy allocator with one contiguity map, matching
 * Linux's per-NUMA-node `struct zone` (the paper keeps one
 * contiguity_map instance per zone, §III-B).
 *
 * Threading: each zone owns one spinlock guarding its buddy allocator
 * and contiguity map (Linux's `zone->lock`), so allocations in
 * different zones never contend. In front of the buddy sit optional
 * per-CPU order-0 frame caches (Linux pcplists): order-0 alloc/free on
 * a CPU works on that CPU's private list and only takes the zone lock
 * to refill or spill a batch. Frames parked in a pcp cache keep
 * inUse=true, so CA paging's occupancy probe correctly treats them as
 * unavailable.
 */

#ifndef CONTIG_PHYS_ZONE_HH
#define CONTIG_PHYS_ZONE_HH

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "base/sync.hh"
#include "phys/buddy.hh"
#include "phys/contiguity_map.hh"

namespace contig
{

class Serializer;

/** Tunables for one zone / the whole physical memory. */
struct ZoneConfig
{
    unsigned maxOrder = kMaxOrder;
    /** Keep the top-order free list address sorted (CA optimization). */
    bool sortedTopList = true;
    /**
     * Seed the free lists in scrambled order (0 = ascending),
     * modelling the churn a real machine's lists accumulate from
     * boot-time allocations and per-CPU batching. Ignored when
     * sortedTopList is set (the list is sorted either way).
     */
    std::uint64_t scrambleSeed = 0;
    /**
     * Number of per-CPU order-0 frame caches (0 disables them, which
     * keeps single-threaded runs byte-identical to the pre-threading
     * allocator). The kernel sets this to its worker-thread count.
     */
    unsigned pcpCpus = 0;
    /** Frames moved between a pcp cache and the buddy per refill/spill. */
    unsigned pcpBatch = 16;
    /** Pcp list length that triggers a spill back to the buddy. */
    unsigned pcpHigh = 64;
    /**
     * Bind the zone lock to a "zone<node>.buddy" LockSite so
     * --lock-stats can attribute contention to the buddy path
     * (refills, spills, direct high-order allocations). Kernel::
     * normalized() sets this from KernelConfig.lockStats.
     */
    bool lockStats = false;
    /**
     * Maintain the free-page gauge + LRU lists + watermarks (the
     * memory-pressure machinery). Kernel::normalized() sets this from
     * KernelConfig.reclaimEnabled; off, none of the pressure state is
     * touched and alloc/free are byte-identical to the pre-reclaim
     * allocator.
     */
    bool reclaim = false;
    /** Multiplier over the derived min/low/high watermarks. */
    double watermarkScale = 1.0;
    /**
     * Stripe the zone's physical metadata — the contiguity map and
     * the buddy's top-order free list — into this many address-
     * contiguous shards, each with its own lock, so CA placement
     * scans stop serializing on the zone lock under threads. 0 or 1
     * keeps the legacy unsharded structures (byte-identical results).
     * Kernel::normalized() sets this from KernelConfig.numaShards.
     */
    unsigned numaShards = 0;
};

/**
 * Per-zone allocation watermarks (pages), derived from zone size the
 * way Linux derives them from managed pages: below `low` kswapd is
 * woken, below `min` allocations direct-reclaim, at `high` kswapd goes
 * back to sleep.
 */
struct Watermarks
{
    std::uint64_t min = 0;
    std::uint64_t low = 0;
    std::uint64_t high = 0;
};

/**
 * One NUMA node's physical memory: a PFN range, its buddy allocator
 * and its contiguity map, kept in sync through the buddy's top-list
 * hooks.
 */
class Zone
{
  public:
    Zone(FrameArray &frames, NodeId node, Pfn base_pfn,
         std::uint64_t n_frames, const ZoneConfig &cfg = {});

    Zone(const Zone &) = delete;
    Zone &operator=(const Zone &) = delete;

    NodeId node() const { return node_; }
    Pfn basePfn() const { return buddy_.basePfn(); }
    std::uint64_t numFrames() const { return buddy_.numFrames(); }

    BuddyAllocator &buddy() { return buddy_; }
    const BuddyAllocator &buddy() const { return buddy_; }
    ContiguityMap &contigMap() { return contigMap_; }
    const ContiguityMap &contigMap() const { return contigMap_; }

    /**
     * The zone lock (Linux `zone->lock`). Allocation goes through the
     * locked entry points below; callers that scan the contiguity map
     * directly (the CA placement policies, the observatory) take this
     * around the scan.
     */
    SpinLock &lock() const { return lock_; }

    bool
    contains(Pfn pfn) const
    {
        return pfn >= basePfn() && pfn < basePfn() + numFrames();
    }

    /**
     * Locked allocation front end. Order-0 requests are served from
     * the calling CPU's pcp cache when caches are enabled; everything
     * else takes the zone lock around the buddy call.
     */
    std::optional<Pfn> alloc(unsigned order);

    /** Locked BuddyAllocator::allocSpecific. */
    bool allocSpecific(Pfn pfn, unsigned order);

    /**
     * Locked free. Order-0 frees land on the calling CPU's pcp cache
     * (spilling a batch to the buddy past the high-water mark).
     */
    void free(Pfn pfn, unsigned order);

    /**
     * Return every pcp-cached frame to the buddy (process teardown,
     * stats capture). Leaves the caches enabled.
     */
    void drainPcp();

    /** Frames currently parked across this zone's pcp caches. */
    std::uint64_t pcpCachedPages() const;

    bool pcpEnabled() const { return !pcp_.empty(); }

    /**
     * The zone's free-block size distribution, weighted by pages
     * (the Fig. 9 histogram for one zone): the contiguity map's
     * unaligned clusters at top-order scale plus the sub-top-order
     * buddy free lists. O(free blocks) — sampled, not kept hot.
     */
    Log2Histogram freeBlockHistogram() const;

    // --- memory pressure (ZoneConfig::reclaim kernels only) -------------

    /** Watermarks derived from zone size (all zero when reclaim off). */
    const Watermarks &watermarks() const { return wm_; }

    /**
     * Buddy free pages, readable without the zone lock (kept as an
     * atomic shadow of BuddyAllocator::freePages, updated only on the
     * locked paths). Frames parked in pcp caches count as free, like
     * Linux's NR_FREE_PAGES. Only maintained when ZoneConfig::reclaim.
     */
    std::uint64_t
    freePagesFast() const
    {
        return freePagesGauge_.load(std::memory_order_relaxed);
    }

    /** One popped LRU candidate (order captured under the LRU lock). */
    struct LruEntry
    {
        Pfn head = kInvalidPfn;
        std::uint8_t order = 0;
    };

    /**
     * LRU list manipulation. All entries are heads of claimed blocks
     * (order 0 or the THP order); each call takes the zone's LRU lock
     * internally, which nests inside every other lock (leaf). Callers
     * are the kernel's claim/free hooks and the ReclaimEngine — never
     * the raw allocator, so reclaim-off runs never touch this state.
     */
    void lruInsert(Frame::LruList list, Pfn head, unsigned order);
    /**
     * Insert at the *tail* (next-to-scan end). Returns false without
     * touching anything if the frame is already on a list — the
     * scanner uses this to requeue candidate handles that may have
     * been freed and re-claimed (and thus re-listed) since the pop.
     */
    bool lruInsertTail(Frame::LruList list, Pfn head, unsigned order);
    /**
     * Lenient head (MRU-end) insert: like lruInsertTail but at the far
     * end from the scanner. Used to requeue lock-busy candidates and
     * unprocessed batch leftovers.
     */
    bool lruRequeue(Frame::LruList list, Pfn head, unsigned order);
    /** Remove head from whatever list it is on (no-op if on none). */
    void lruRemove(Pfn head);
    /**
     * Pop up to n block heads from the *tail* (oldest end) of `list`
     * into out; returns the number popped. The popped entries are off
     * every list (lruList = None) until re-inserted.
     */
    std::size_t lruPopTail(Frame::LruList list, std::size_t n,
                           LruEntry *out);
    /** Pages (not blocks) currently on the given list. */
    std::uint64_t lruPages(Frame::LruList list) const;

    /**
     * Serialize buddy free lists plus per-CPU cache contents for
     * checkpoint verification (save-only; see BuddyAllocator).
     */
    void saveState(Serializer &s) const;

  private:
    /** One CPU's private cache; padded so neighbours don't false-share. */
    struct alignas(64) PcpList
    {
        std::vector<Pfn> pfns;
    };

    PcpList &myPcp() { return pcp_[ThisCpu::id() % pcp_.size()]; }

    /** One LRU list: head = MRU end, tail = LRU end (eviction end). */
    struct Lru
    {
        Pfn head = kInvalidPfn;
        Pfn tail = kInvalidPfn;
        std::uint64_t pages = 0;
    };

    Lru &lruOf(Frame::LruList list);
    const Lru &lruOf(Frame::LruList list) const;
    /** Unlink head from its current list; caller holds lruLock_. */
    void lruUnlinkLocked(Pfn head);

    NodeId node_;
    FrameArray &frames_;
    ContiguityMap contigMap_;
    BuddyAllocator buddy_;
    mutable SpinLock lock_;
    unsigned pcpBatch_;
    unsigned pcpHigh_;
    std::vector<PcpList> pcp_;

    /** Memory-pressure state (ZoneConfig::reclaim kernels only). */
    bool reclaim_ = false;
    Watermarks wm_;
    std::atomic<std::uint64_t> freePagesGauge_{0};
    mutable SpinLock lruLock_;
    Lru inactive_;
    Lru active_;
};

} // namespace contig

#endif // CONTIG_PHYS_ZONE_HH
