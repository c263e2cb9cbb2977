/**
 * @file
 * A 4-level x86-64-style radix page table supporting 4 KiB and 2 MiB
 * leaves. Serves three roles in the reproduction:
 *  - guest page tables (gVA -> gPA),
 *  - nested page tables (gPA -> hPA, the backing process's table),
 *  - native process page tables (VA -> PA).
 *
 * Walks record which page-table node frames they touch so the nested
 * walker can charge the full 2-D cost (up to 24 memory references) and
 * feed its paging-structure caches. PTEs carry the reserved
 * "contiguity bit" that CA paging sets to filter SpOT's prediction
 * table fills (paper §IV-C, "Preventing thrashing").
 */

#ifndef CONTIG_MM_PAGE_TABLE_HH
#define CONTIG_MM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "base/types.hh"

namespace contig
{

/** Number of entries per page-table node (9 index bits per level). */
constexpr unsigned kPtFanout = 512;
/** Default radix depth (x86-64 4-level; 5-level for 57-bit VA). */
constexpr unsigned kPtLevels = 4;

/** A leaf translation as returned by lookups and walks. */
struct Mapping
{
    Pfn pfn = kInvalidPfn;
    unsigned order = 0; //!< 0 (4 KiB leaf) or kHugeOrder (2 MiB leaf)
    bool writable = true;
    bool cow = false;
    /** Reserved SW bit: this page belongs to a large contiguous mapping. */
    bool contigBit = false;

    bool valid() const { return pfn != kInvalidPfn; }
};

/**
 * Trace of one page-table walk: the frames of the page-table nodes
 * that were read, root first. Its length is the number of memory
 * references a native walk costs (4 for a 4 KiB leaf, 3 for 2 MiB).
 */
struct WalkTrace
{
    std::vector<Pfn> nodeFrames;
    Mapping mapping;
    bool hit = false;
};

/** Statistics exported by a PageTable instance. */
struct PageTableStats
{
    std::uint64_t maps = 0;
    std::uint64_t unmaps = 0;
    std::uint64_t nodesAllocated = 0;
    std::uint64_t mappedBasePages = 0;
    std::uint64_t mappedHugePages = 0;
};

/**
 * Radix page table. Node frames are obtained through a caller-provided
 * allocator so that guest page tables consume guest-physical frames
 * (and therefore themselves require nested translation).
 */
class PageTable
{
  public:
    /** Allocates/frees one frame for a page-table node. */
    using NodeAlloc = std::function<Pfn()>;
    using NodeFree = std::function<void(Pfn)>;

    /**
     * @param node_alloc Source of node frames. May be null, in which
     *        case nodes get synthetic frame numbers outside any zone
     *        (fine for native tables whose nodes are never translated).
     * @param levels Radix depth: 4 (48-bit VA) or 5 (57-bit VA, the
     *        LA57 extension the paper's introduction points to as a
     *        further walk-cost multiplier).
     */
    explicit PageTable(NodeAlloc node_alloc = nullptr,
                       NodeFree node_free = nullptr,
                       unsigned levels = kPtLevels);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Install a leaf. order must be 0 or kHugeOrder; vpn must be
     * order-aligned; the slot must currently be empty.
     */
    void map(Vpn vpn, Pfn pfn, unsigned order, bool writable = true,
             bool cow = false);

    /** Remove a leaf previously installed at this vpn/order. */
    void unmap(Vpn vpn, unsigned order);

    /** Leaf covering vpn, if any. Does not record a trace. */
    std::optional<Mapping> lookup(Vpn vpn) const;

    /**
     * Full walk: like lookup but records every node frame read.
     * trace.hit is false if the walk fell off a non-present entry
     * (trace still records the nodes read up to that point).
     */
    void walk(Vpn vpn, WalkTrace &trace) const;

    /** Set/clear the contiguity bit on the leaf covering vpn. */
    void setContigBit(Vpn vpn, bool value);

    /** Flip writability (COW arm/disarm) on the leaf covering vpn. */
    void setWritable(Vpn vpn, bool writable, bool cow);

    /**
     * Visit every leaf in ascending vpn order:
     * fn(vpn, mapping).
     */
    void forEachLeaf(
        const std::function<void(Vpn, const Mapping &)> &fn) const;

    /**
     * Visit every leaf intersecting [start, end), ascending. One radix
     * descent that skips subtrees outside the range — the FaultEngine's
     * batch paths (fork COW sharing, VMA teardown) use this instead of
     * filtering a whole-table walk.
     */
    void forEachLeafIn(
        Vpn start, Vpn end,
        const std::function<void(Vpn, const Mapping &)> &fn) const;

    /**
     * First vpn in [start, end) covered by a present leaf, or `end`
     * when the whole range is unmapped. A single descent skipping
     * absent subtrees; replaces per-page lookup loops (the THP
     * range-clear check, the FaultEngine's gap scan).
     */
    Vpn findMappedIn(Vpn start, Vpn end) const;

    /** Batched 4 KiB leaf installs; defined after the class. */
    class RunMapper;

    /** Frame number of the root node (the CR3 analogue). */
    Pfn rootFrame() const;

    /** Radix depth (4 or 5). */
    unsigned levels() const { return levels_; }

    /**
     * Observer invoked after every leaf install/remove:
     * fn(vpn, mapping, present). Used by shadow-paging hypervisors to
     * trap guest page-table updates (the write-protect-and-sync of
     * real shadow paging).
     */
    using UpdateHook =
        std::function<void(Vpn, const Mapping &, bool present)>;
    void setUpdateHook(UpdateHook hook) { updateHook_ = std::move(hook); }

    const PageTableStats &stats() const { return stats_; }

    /**
     * Mapping-change epoch: bumped by every leaf mutation (map,
     * unmap, setContigBit, setWritable, RunMapper installs). Software
     * walk memos key their entries on this counter so any change to
     * the table — guest or nested — invalidates cached traversals
     * without a flush broadcast. Monotonic.
     */
    std::uint64_t generation() const
    { return generation_; }

  private:
    struct Node;

    void bumpGeneration()
    { ++generation_; }

    /** One slot: either a child node or a leaf PTE (or empty). */
    struct Slot
    {
        std::unique_ptr<Node> child;
        Mapping leaf;
        bool present = false; //!< leaf present (child presence: child != null)
    };

    struct Node
    {
        explicit Node(unsigned lvl, Pfn frame)
            : level(lvl), frame(frame) {}
        unsigned level;
        Pfn frame;
        std::array<Slot, kPtFanout> slots;
    };

    static unsigned indexAt(Vpn vpn, unsigned level);
    Node *ensureChild(Node *node, unsigned idx);
    Slot *findLeafSlot(Vpn vpn) const;
    void freeNodes(Node *node);
    Pfn allocNodeFrame();

    void
    forEachLeafIn(const Node *node, Vpn base,
                  const std::function<void(Vpn, const Mapping &)> &fn) const;

    void
    forEachLeafInRange(
        const Node *node, Vpn base, Vpn start, Vpn end,
        const std::function<void(Vpn, const Mapping &)> &fn) const;

    Vpn findMappedInNode(const Node *node, Vpn base, Vpn start,
                         Vpn end) const;

    NodeAlloc nodeAlloc_;
    NodeFree nodeFree_;
    UpdateHook updateHook_;
    unsigned levels_;
    std::unique_ptr<Node> root_;
    Pfn syntheticNext_;
    PageTableStats stats_;
    std::uint64_t generation_ = 0;
};

/**
 * Batched 4 KiB installs: caches the level-1 node across map() calls
 * so a run of base-page installs inside one 2 MiB region costs one
 * descent instead of one per page. Semantics are identical to
 * PageTable::map(vpn, pfn, 0, ...) — stats and the update hook fire
 * per leaf. The cache must be invalidated (or the mapper discarded)
 * before any page-table mutation made behind its back that can free
 * nodes (unmap, huge promotion).
 */
class PageTable::RunMapper
{
  public:
    explicit RunMapper(PageTable &pt) : pt_(pt) {}

    /** Install a 4 KiB leaf at vpn (the slot must be empty). */
    void map(Vpn vpn, Pfn pfn, bool writable, bool cow);

    /** Drop the cached node (after external page-table mutations). */
    void invalidate() { l1_ = nullptr; }

  private:
    PageTable &pt_;
    Node *l1_ = nullptr;
    Vpn l1Base_ = ~Vpn{0};
};

} // namespace contig

#endif // CONTIG_MM_PAGE_TABLE_HH
