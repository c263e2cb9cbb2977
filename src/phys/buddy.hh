/**
 * @file
 * Power-of-two buddy allocator over a contiguous PFN range, modelled on
 * the Linux core physical allocator that CA paging extends. It keeps
 * one free list per order in [0, maxOrder]. The top-order list can be
 * kept sorted by physical address — the fragmentation-restraint
 * optimization of the paper (§III-C) — and exposes insert/remove hooks
 * that the ContiguityMap subscribes to.
 *
 * Two extensions beyond a stock buddy allocator support CA paging:
 *  - allocSpecific(): carve an exact block out of whatever free block
 *    encloses it (the "retrieve the target page from buddy's lists"
 *    step of Fig. 2b);
 *  - enclosingFreeBlock(): the occupancy probe CA paging performs via
 *    mem_map before committing to a target.
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
class Serializer;

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
     * @param top_stripes Stripe the top-order free list into this many
     *        address-contiguous shards (<=1 keeps the single legacy
     *        list). Insert/remove route by block address, so a sorted
     *        striped list concatenates to the same global ascending
     *        order — observable state (counts, iteration order,
     *        checkpoints) is identical to the unsharded allocator.
     */
    BuddyAllocator(FrameArray &frames, Pfn base_pfn, std::uint64_t n_frames,
                   unsigned max_order = kMaxOrder, bool sorted_top = true,
                   std::uint64_t scramble_seed = 0,
                   unsigned top_stripes = 1);

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

    /** Return a block of 2^order pages, coalescing with free buddies. */
    void free(Pfn pfn, unsigned order);

    /** True iff this base page is inside some free block. */
    bool isFreePage(Pfn pfn) const;

    /**
     * The free buddy block containing pfn, if any, as (head, order).
     */
    std::optional<std::pair<Pfn, unsigned>>
    enclosingFreeBlock(Pfn pfn) const;

    /** Iterate the free blocks of one order in list order. */
    void forEachFreeBlock(unsigned order,
                          const std::function<void(Pfn)> &fn) const;

    unsigned maxOrder() const { return maxOrder_; }
    unsigned topStripes() const { return topStripes_; }
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

    /** Report counters + free-state gauges into a metric sink. */
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

    /**
     * Serialize the allocator's observable state (geometry, free-list
     * contents in list order, stats) for checkpoint verification.
     * Save-only: the kernel is rebuilt deterministically on resume and
     * the re-serialized bytes are compared against the snapshot.
     */
    void saveState(Serializer &s) const;

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
    void markAllocated(Pfn pfn, unsigned order);
    void markFree(Pfn pfn, unsigned order);

    /** Stripe index of a top-order block (0 when unstriped). */
    unsigned topStripeOf(Pfn pfn) const;
    /** The list holding blocks of this order at this address. */
    FreeList &listFor(Pfn pfn, unsigned order);
    const FreeList &listFor(Pfn pfn, unsigned order) const;
    /** Same-list check for insertSorted's neighbour splice. */
    bool sameList(Pfn a, Pfn b, unsigned order) const;
    /** Total listed blocks of one order (sums top stripes). */
    std::uint64_t listCount(unsigned order) const;
    /** True iff some block of this order is listed. */
    bool listNonEmpty(unsigned order) const;

    FrameArray &frames_;
    Pfn basePfn_;
    std::uint64_t nFrames_;
    unsigned maxOrder_;
    bool sortedTop_;
    std::vector<FreeList> lists_;
    /**
     * Top-order striping (top_stripes > 1 only): the top-order list is
     * split into per-stripe lists, routed by block address;
     * lists_[maxOrder_] is unused in that mode. topStripeSpan_ is the
     * PFNs per stripe (top-block aligned; the last stripe absorbs the
     * remainder).
     */
    unsigned topStripes_ = 1;
    std::uint64_t topStripeSpan_ = 0;
    std::vector<FreeList> topLists_;
    std::uint64_t freePages_ = 0;
    BuddyStats stats_;
    TopListHook onTopInsert_;
    TopListHook onTopRemove_;
};

} // namespace contig

#endif // CONTIG_PHYS_BUDDY_HH
