/**
 * @file
 * Power-of-two buddy allocator over a contiguous PFN range, modelled on
 * the Linux core physical allocator that CA paging extends. It keeps
 * one free list per order in [0, maxOrder]. The top-order list can be
 * kept sorted by physical address — the fragmentation-restraint
 * optimization of the paper (§III-C) — and exposes insert/remove hooks
 * that the ContiguityMap subscribes to.
 *
 * Occupancy is one bit per frame in a bitmap indexed from the zone
 * base: alloc and free set and clear a block's bits a word at a time,
 * and write no frame descriptor beyond the free-list heads they link
 * or unlink.
 *
 * Two extensions beyond a stock buddy allocator support CA paging:
 *  - allocSpecific(): carve an exact block out of whatever free block
 *    encloses it (the "retrieve the target page from buddy's lists"
 *    step of Fig. 2b);
 *  - isFreePage() / enclosingFreeBlock(): the occupancy probe CA
 *    paging performs before committing to a target.
 */

#ifndef CONTIG_PHYS_BUDDY_HH
#define CONTIG_PHYS_BUDDY_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "phys/frame.hh"

namespace contig
{

namespace obs { class MetricSink; }

/** Statistics exported by a BuddyAllocator instance. */
struct BuddyStats
{
    std::uint64_t allocCalls = 0;
    std::uint64_t allocSpecificCalls = 0;
    std::uint64_t allocSpecificFailures = 0;
    std::uint64_t splits = 0;
    std::uint64_t merges = 0;
    std::uint64_t freeCalls = 0;
};

/**
 * Buddy allocator over frames [basePfn, basePfn + nFrames). nFrames
 * must be a multiple of the top-order block size so the initial free
 * space seeds cleanly into top-order blocks.
 */
class BuddyAllocator
{
  public:
    /** Callback invoked when a top-order block enters/leaves its list. */
    using TopListHook = std::function<void(Pfn)>;

    /**
     * @param frames Backing mem_map (shared with the rest of the kernel).
     *        Frames in the managed range must be fresh (all-zero), which
     *        reads as free; seeding writes only the top-order block heads.
     * @param base_pfn First frame managed by this allocator.
     * @param n_frames Number of frames managed.
     * @param max_order Top order (Linux default 11; eager paging raises it).
     * @param sorted_top Keep the top-order list address-sorted.
     * @param scramble_seed If nonzero (and the list is unsorted), seed
     *        the initial top-order list in shuffled order.
     */
    BuddyAllocator(FrameArray &frames, Pfn base_pfn, std::uint64_t n_frames,
                   unsigned max_order = kMaxOrder, bool sorted_top = true,
                   std::uint64_t scramble_seed = 0);

    BuddyAllocator(const BuddyAllocator &) = delete;
    BuddyAllocator &operator=(const BuddyAllocator &) = delete;

    /**
     * Allocate a block of 2^order pages. Splits larger blocks on
     * demand. Returns the block's head PFN, or nullopt if no block of
     * sufficient order is free.
     */
    std::optional<Pfn> alloc(unsigned order);

    /**
     * Allocate the specific block [pfn, pfn + 2^order). Succeeds only
     * if the whole block currently sits inside one free buddy block;
     * splits that block down as needed. pfn must be 2^order aligned.
     */
    bool allocSpecific(Pfn pfn, unsigned order);

    /**
     * Return a block of 2^order pages, coalescing with free buddies.
     * Every frame of the block must be allocated.
     */
    void free(Pfn pfn, unsigned order);

    /** True iff this base page is inside some free block. */
    bool isFreePage(Pfn pfn) const;

    /** Occupancy bit of a page of this zone: allocated, not free. */
    bool
    inUse(Pfn pfn) const
    {
        const std::uint64_t off = pfn - basePfn_;
        return (inUse_[off / 64] >> (off % 64)) & 1;
    }

    /**
     * The free buddy block containing pfn, if any, as (head, order).
     */
    std::optional<std::pair<Pfn, unsigned>>
    enclosingFreeBlock(Pfn pfn) const;

    /** Iterate the free blocks of one order in list order. */
    void forEachFreeBlock(unsigned order,
                          const std::function<void(Pfn)> &fn) const;

    unsigned maxOrder() const { return maxOrder_; }
    Pfn basePfn() const { return basePfn_; }
    std::uint64_t numFrames() const { return nFrames_; }
    std::uint64_t freePages() const { return freePages_; }
    std::uint64_t freeBlocks(unsigned order) const;
    const BuddyStats &stats() const { return stats_; }

    /** Free-list lengths for every order, indexed [0, maxOrder]. */
    std::vector<std::uint64_t> freeBlockCounts() const;

    /**
     * Gorman's unusable free space index at `order` (the FMFI the
     * observatory samples): the fraction of currently-free memory
     * that cannot serve one allocation of 2^order pages because it
     * sits in smaller blocks. 0 means every free page lives in a
     * block of at least that order; 1 means none does. Returns 0
     * when no memory is free.
     */
    double unusableFreeIndex(unsigned order) const;

    /** Report counters + free-state point values into a metric sink. */
    void collectMetrics(obs::MetricSink &sink) const;

    /** Hooks for the ContiguityMap (top-order list changes). */
    void setTopListHooks(TopListHook on_insert, TopListHook on_remove);

    /**
     * Shuffle the order of every free list (the sorted top list, if
     * enabled, is left sorted). Models the entropy an aged machine's
     * lists accumulate; used by the system-churn aging utility.
     */
    void shuffleFreeLists(std::uint64_t seed);

    /** Internal consistency check; used by the property tests. */
    bool checkInvariants() const;

  private:
    struct FreeList
    {
        Pfn head = kInvalidPfn;
        std::uint64_t count = 0;
    };

    bool contains(Pfn pfn, unsigned order) const;
    Pfn buddyOf(Pfn pfn, unsigned order) const;

    void pushBlock(Pfn pfn, unsigned order);
    void removeBlock(Pfn pfn, unsigned order);
    Pfn popBlock(unsigned order);

    void insertHead(FreeList &list, Pfn pfn, unsigned order);
    void insertSorted(FreeList &list, Pfn pfn, unsigned order);
    /** Set / clear the occupancy bits of one block. */
    void markAllocated(Pfn pfn, unsigned order);
    void markFree(Pfn pfn, unsigned order);
    /** True iff every occupancy bit of the block equals `in_use`. */
    bool blockIs(Pfn pfn, unsigned order, bool in_use) const;

    FrameArray &frames_;
    Pfn basePfn_;
    std::uint64_t nFrames_;
    unsigned maxOrder_;
    bool sortedTop_;
    std::vector<FreeList> lists_;
    /** Occupancy bitmap: bit (pfn - basePfn_) set while allocated. */
    std::vector<std::uint64_t> inUse_;
    std::uint64_t freePages_ = 0;
    BuddyStats stats_;
    TopListHook onTopInsert_;
    TopListHook onTopRemove_;
};

} // namespace contig

#endif // CONTIG_PHYS_BUDDY_HH
