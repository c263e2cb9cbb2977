/**
 * @file
 * A Zone couples one buddy allocator with one contiguity map, matching
 * Linux's per-NUMA-node `struct zone` (the paper keeps one
 * contiguity_map instance per zone, §III-B).
 */

#ifndef CONTIG_PHYS_ZONE_HH
#define CONTIG_PHYS_ZONE_HH

#include "phys/buddy.hh"
#include "phys/contiguity_map.hh"

namespace contig
{

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
     * Derive the allocation watermarks (the memory-pressure
     * machinery). Kernel::normalized() sets this from
     * KernelConfig.reclaimEnabled; off, the watermarks stay zero and
     * the LRU lists stay empty.
     */
    bool reclaim = false;
};

/** Floor of every derived watermark, so tiny zones keep a band. */
constexpr std::uint64_t kMinWatermarkPages = 16;

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
 * hooks. Allocation goes straight to buddy().
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

    bool
    contains(Pfn pfn) const
    {
        return pfn >= basePfn() && pfn < basePfn() + numFrames();
    }

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

    /** One popped LRU candidate. */
    struct LruEntry
    {
        Pfn head = kInvalidPfn;
        std::uint8_t order = 0;
    };

    /**
     * LRU list manipulation. All entries are heads of claimed blocks
     * (order 0 or the THP order). Callers are the kernel's claim/free
     * hooks and the ReclaimEngine — never the raw allocator, so
     * reclaim-off runs never touch this state.
     */
    void lruInsert(Frame::LruList list, Pfn head, unsigned order);
    /**
     * Insert at the *tail* (next-to-scan end). Returns false without
     * touching anything if the frame is already on a list.
     */
    bool lruInsertTail(Frame::LruList list, Pfn head, unsigned order);
    /**
     * Lenient head (MRU-end) insert: like lruInsertTail but at the far
     * end from the scanner. Used to requeue rotated or skipped
     * candidates and unprocessed batch leftovers.
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

    /** Visit the blocks on `list`, MRU end first: fn(head, order). */
    template <typename Fn>
    void
    forEachLru(Frame::LruList list, Fn &&fn) const
    {
        for (Pfn p = lruOf(list).head; p != kInvalidPfn;
             p = frames_[p].lruNext) {
            fn(p, unsigned{frames_[p].lruOrder});
        }
    }

  private:
    /** One LRU list: head = MRU end, tail = LRU end (eviction end). */
    struct Lru
    {
        Pfn head = kInvalidPfn;
        Pfn tail = kInvalidPfn;
        std::uint64_t pages = 0;
    };

    Lru &lruOf(Frame::LruList list);
    const Lru &lruOf(Frame::LruList list) const;
    /** Unlink head from its current list. */
    void lruUnlink(Pfn head);
    /** Link a block at the head (MRU) or tail (scan) end of `list`. */
    void lruLink(Frame::LruList list, Pfn head, unsigned order, bool at_tail);

    NodeId node_;
    FrameArray &frames_;
    ContiguityMap contigMap_;
    BuddyAllocator buddy_;

    /** Memory-pressure state (ZoneConfig::reclaim kernels only). */
    Watermarks wm_;
    Lru inactive_;
    Lru active_;
};

} // namespace contig

#endif // CONTIG_PHYS_ZONE_HH
