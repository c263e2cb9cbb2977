/**
 * @file
 * Frame descriptors: the simulator's analogue of Linux's `struct page`
 * array (`mem_map`). One descriptor per base (4 KiB) frame of a
 * physical address space. As with Linux compound pages, an allocated
 * block keeps its state in its head descriptor; whether a frame is
 * allocated at all is kept in the buddy allocator's occupancy bitmap,
 * which CA paging probes before taking a target (§III-B/C).
 */

#ifndef CONTIG_PHYS_FRAME_HH
#define CONTIG_PHYS_FRAME_HH

#include <cstdint>
#include <limits>
#include <type_traits>

#include "base/logging.hh"
#include "base/types.hh"

namespace contig
{

constexpr std::uint32_t kNoOwner = std::numeric_limits<std::uint32_t>::max();

/** What kind of object a frame currently backs (for reverse mapping). */
enum class FrameOwner : std::uint8_t
{
    None,      //!< unallocated or kernel-internal
    Anon,      //!< anonymous process memory
    PageCache, //!< file-backed page-cache page
    PageTable, //!< page-table node
};

/**
 * Per-frame metadata. Mirrors the `struct page` fields the paper's
 * mechanisms rely on: `_count`/`_mapcount` for the free check, buddy
 * linkage for the free lists, and a reverse-mapping triple used by the
 * migration-based baselines (Ranger, Ingens promotion).
 *
 * Head-only state: Kernel::claimFrames() writes the claim state
 * (owner triple, refcount, mapcount, `claimOrder`) into the head
 * descriptor of the claimed block only, every map or unmap of a leaf
 * changes the head's mapcount once (Kernel::mapLeaf/unmapLeaf), and
 * the final putFrame() clears the head again. Tail descriptors carry
 * no claim state; a tail finds its head with Kernel::claimHead(), and
 * its reverse-mapped address is the head's `ownerVaddr` plus its
 * offset. Occupancy is not a frame field but one bit per frame in the
 * BuddyAllocator. The only path that writes tail descriptors is
 * Kernel::splitClaim(): a THP split turns the 512 frames of a huge
 * leaf into order-0 heads, and the memory hog makes each 2 MiB piece
 * of its 4 MiB chunks a head of its own.
 *
 * A frame whose bytes are all zero is a valid, unowned frame: free, or
 * a tail of a claimed block. The mem_map is therefore a zero-filled
 * mapping: a fresh machine writes only the descriptors of its
 * top-order free-block heads, and a page of the mem_map is touched
 * only when a block head lands on it. Fields whose zero is not
 * meaningful on its own (list linkage, `ownerId`) are written before
 * anything reads them: the links by list insert, the owner id together
 * with `ownerKind`.
 *
 * The simulator runs one thread and handles one fault at a time, so
 * every field is a plain field. The small fields are grouped so a
 * descriptor fills one 64-byte line.
 */
struct Frame
{
    /** References held; nonzero exactly on the head of a claimed block. */
    std::uint32_t refCount = 0;
    /** Number of page-table leaves mapping the block headed here. */
    std::uint32_t mapCount = 0;
    /** Owning process or file id; meaningful only if ownerKind != None. */
    std::uint32_t ownerId = 0;

    /** Buddy order of the free block this frame heads (valid if freeHead). */
    std::uint8_t order = 0;
    /** Order of the claimed block this frame heads (valid if refCount). */
    std::uint8_t claimOrder = 0;
    /** True only for the first frame of a free block on a free list. */
    bool freeHead = false;
    /** Reverse mapping: which kind of object backs the block. */
    FrameOwner ownerKind = FrameOwner::None;

    /** Intrusive free-list linkage (heads only; set by list insert). */
    Pfn freeNext = 0;
    Pfn freePrev = 0;

    /** Reverse mapping: the owning gva (or file offset) of the head. */
    Addr ownerVaddr = 0;

    // --- LRU reclaim state (reclaimEnabled kernels only) ---------------
    //
    // Mirrors the free-list idiom above: intrusive linkage on block
    // heads only. `referenced` is the second-chance bit, set by the
    // fault path when it finds a leaf already mapped.

    /** Which LRU list the block headed here sits on. */
    enum class LruList : std::uint8_t { None, Inactive, Active };

    /** Intrusive LRU linkage (heads of listed blocks; set by insert). */
    Pfn lruNext = 0;
    Pfn lruPrev = 0;
    /** Mapping order of the block this frame heads on an LRU list. */
    std::uint8_t lruOrder = 0;
    LruList lruList = LruList::None;
    /** Second-chance bit: touched since the last LRU scan looked. */
    bool referenced = false;
};

static_assert(std::is_trivially_destructible_v<Frame>,
              "the mem_map is unmapped without running destructors");
static_assert(sizeof(Frame) == 64, "one descriptor per cache line");

/**
 * The mem_map: a flat array of Frame descriptors covering one physical
 * address space (host machine or a VM's guest-physical space). It is
 * one anonymous zero-filled mapping, so building a machine costs
 * nothing per frame: the host OS supplies zero pages on first touch
 * and an all-zero Frame is the free, unowned state.
 */
class FrameArray
{
  public:
    explicit FrameArray(std::uint64_t n_frames);
    ~FrameArray();

    FrameArray(const FrameArray &) = delete;
    FrameArray &operator=(const FrameArray &) = delete;

    Frame &
    operator[](Pfn pfn)
    {
        contig_assert(pfn < size_, "pfn %llu out of range",
                      static_cast<unsigned long long>(pfn));
        return frames_[pfn];
    }

    const Frame &
    operator[](Pfn pfn) const
    {
        contig_assert(pfn < size_, "pfn %llu out of range",
                      static_cast<unsigned long long>(pfn));
        return frames_[pfn];
    }

    std::uint64_t size() const { return size_; }

  private:
    Frame *frames_ = nullptr;
    std::uint64_t size_ = 0;
};

} // namespace contig

#endif // CONTIG_PHYS_FRAME_HH
