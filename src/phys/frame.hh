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
 * One 32-bit link of an intrusive list threaded through a FrameArray.
 * It reads and writes as a Pfn: kInvalidPfn is stored as all ones and
 * every other pfn as itself, which FrameArray makes lossless by
 * keeping every pfn below that sentinel.
 */
class FrameLink
{
  public:
    static constexpr std::uint32_t kNone =
        std::numeric_limits<std::uint32_t>::max();

    FrameLink &
    operator=(Pfn pfn)
    {
        contig_assert(pfn == kInvalidPfn || pfn < kNone,
                      "pfn %llu does not fit a frame link",
                      static_cast<unsigned long long>(pfn));
        raw_ = pfn == kInvalidPfn ? kNone : static_cast<std::uint32_t>(pfn);
        return *this;
    }

    operator Pfn() const { return raw_ == kNone ? kInvalidPfn : Pfn{raw_}; }

  private:
    std::uint32_t raw_ = 0;
};

/**
 * Per-frame metadata. Mirrors the `struct page` fields the paper's
 * mechanisms rely on: `_count`/`_mapcount` for the free check, list
 * links for the buddy free lists and the LRU, and a reverse-mapping
 * triple used by the migration-based baselines (Ranger, Ingens
 * promotion).
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
 * One link pair serves two lists. On a free head (`freeHead`) it
 * threads the buddy free list of that order; on the head of a claimed
 * block that sits on an LRU list (`lruList != None`) it threads that
 * list. A block is never both: Kernel::putFrame() unlists a head
 * through ReclaimEngine::onFree() before the buddy frees it, and each
 * list's insert asserts that the other does not hold the pair.
 *
 * A frame whose bytes are all zero is a valid, unowned frame: free, or
 * a tail of a claimed block, and on no list. The mem_map is therefore
 * a zero-filled mapping: a fresh machine writes only the descriptors
 * of its top-order free-block heads, and a page of the mem_map is
 * touched only when a block head lands on it. Fields whose zero is not
 * meaningful on its own (the links, `ownerId`) are written before
 * anything reads them: the links by list insert, the owner id together
 * with `ownerKind`.
 *
 * The simulator runs one thread and handles one fault at a time, so
 * every field is a plain field. The flags share one byte, so a
 * descriptor is 32 bytes: two per 64-byte line.
 */
struct Frame
{
    /** Which LRU list the block headed here sits on. */
    enum class LruList : std::uint8_t { None, Inactive, Active };

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
    /** Mapping order of the block this frame heads on an LRU list. */
    std::uint8_t lruOrder = 0;
    /** True only for the first frame of a free block on a free list. */
    bool freeHead : 1 = false;
    /**
     * Second-chance bit (reclaim kernels): touched since the last LRU
     * scan looked. Set by the fault path when it finds a leaf already
     * mapped.
     */
    bool referenced : 1 = false;
    /** Reverse mapping: which kind of object backs the block. */
    FrameOwner ownerKind : 2 = FrameOwner::None;
    /** The LRU list holding this head (reclaim kernels only). */
    LruList lruList : 2 = LruList::None;

    /** The shared intrusive link pair (free head or LRU-listed head). */
    FrameLink next;
    FrameLink prev;

    /** Reverse mapping: the owning gva (or file offset) of the head. */
    Addr ownerVaddr = 0;

    /** Clear the second-chance bit; return whether it was set. */
    bool
    testClearReferenced()
    {
        const bool was = referenced;
        referenced = false;
        return was;
    }
};

static_assert(std::is_trivially_destructible_v<Frame>,
              "the mem_map is unmapped without running destructors");
static_assert(sizeof(Frame) == 32, "two descriptors per cache line");

/**
 * A compiler barrier for a writer that may be the first to touch a
 * mem_map page. The first access decides what the page costs the
 * host: a read maps the shared zero page and the store after it
 * faults again to copy it, where a store alone faults once. A
 * bit-field update reads its byte, and the compiler may hoist that
 * read above an earlier store to another field, so such a writer
 * stores a whole field, calls this, and only then reads the
 * descriptor or updates its flags.
 */
inline void
afterFirstStore()
{
    asm volatile("" ::: "memory");
}

/**
 * The mem_map: a flat array of Frame descriptors covering one physical
 * address space (host machine or a VM's guest-physical space). It is
 * one anonymous zero-filled mapping, so building a machine costs
 * nothing per frame: the host OS supplies zero pages on first touch
 * and an all-zero Frame is the free, unowned state. It holds at most
 * kMaxFrames descriptors, so every pfn fits a FrameLink.
 */
class FrameArray
{
  public:
    /** The most frames one mem_map may hold. */
    static constexpr std::uint64_t kMaxFrames = FrameLink::kNone;

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
