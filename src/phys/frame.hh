/**
 * @file
 * Frame descriptors: the simulator's analogue of Linux's `struct page`
 * array (`mem_map`). One descriptor per base (4 KiB) frame of a
 * physical address space. CA paging consults these descriptors
 * (refcount/mapcount) to decide whether an allocation target is free,
 * exactly as the paper describes (§III-B).
 */

#ifndef CONTIG_PHYS_FRAME_HH
#define CONTIG_PHYS_FRAME_HH

#include <atomic>
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
 * A frame whose bytes are all zero is a valid, unowned frame inside a
 * free buddy block (`inUse` false, no list linkage, no owner). The
 * mem_map is therefore a zero-filled mapping: a fresh machine writes
 * only the descriptors of its top-order free-block heads, and every
 * other page of the mem_map stays untouched until first use. Fields
 * whose zero is not meaningful on its own (list linkage, `ownerId`)
 * are written before anything reads them: the links by list insert,
 * the owner id together with `ownerKind`.
 *
 * The simulator handles one fault at a time, so no field is shared
 * between threads. refCount/mapCount/inUse, the owner fields and the
 * second-chance bit are still std::atomic because their readers use
 * load()/store(); converting them to plain fields is a separate
 * cleanup. `inUse` is CA paging's
 * occupancy probe (§III-C): the placement policy reads it before
 * allocSpecific() carves the block out of the buddy lists.
 *
 * The small fields are grouped so a descriptor fills one 64-byte line.
 */
struct Frame
{
    /** References held (0 while the frame sits in the buddy allocator). */
    std::atomic<std::uint32_t> refCount{0};
    /** Number of page-table mappings pointing at this frame. */
    std::atomic<std::uint32_t> mapCount{0};
    /** Owning process or file id; meaningful only if ownerKind != None. */
    std::atomic<std::uint32_t> ownerId{0};

    /** Buddy order of the free block this frame heads (valid if freeHead). */
    std::uint8_t order = 0;
    /** False for every frame inside a free buddy block. */
    std::atomic<bool> inUse{false};
    /** True only for the first frame of a free block on a free list. */
    bool freeHead = false;
    /** Reverse mapping: which kind of object backs this frame. */
    std::atomic<FrameOwner> ownerKind{FrameOwner::None};

    /** Intrusive free-list linkage (heads only; set by list insert). */
    Pfn freeNext = 0;
    Pfn freePrev = 0;

    /** Reverse mapping: the owning gva (or file offset). */
    std::atomic<Addr> ownerVaddr{0};

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
    std::atomic<bool> referenced{false};
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
