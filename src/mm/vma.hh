/**
 * @file
 * Virtual memory areas (the `vm_area_struct` analogue), carrying the
 * CA-paging metadata the paper adds: a FIFO of up to 64 per-sub-region
 * Offsets (paper §III-C, "Dealing with external fragmentation") and the
 * replacement guard that admits one re-placement at a time when faults
 * race (§III-C, "Avoiding multithreading pitfalls").
 */

#ifndef CONTIG_MM_VMA_HH
#define CONTIG_MM_VMA_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/align.hh"
#include "base/types.hh"

namespace contig
{

/** How many (vaddr, Offset) pairs CA paging tracks per VMA. */
constexpr std::size_t kMaxCaOffsets = 64;

/** What backs a VMA. */
enum class VmaKind : std::uint8_t
{
    Anon,     //!< anonymous memory (heap, mmap MAP_ANONYMOUS)
    File,     //!< file-backed mapping served through the page cache
    GuestRam, //!< a VM's guest-physical memory, backed in the host
};

/**
 * One Offset record: all pages of a contiguous mapping share
 * offset = vpn - pfn (the paper defines it over addresses; we keep it
 * in page units). The fault vaddr that created the record is kept so
 * faults pick the record whose origin is closest (§III-C).
 */
struct CaOffset
{
    Vpn originVpn = 0;          //!< vpn of the fault that set this offset
    std::int64_t offsetPages = 0; //!< vpn - pfn for this sub-region
};

/**
 * A contiguous virtual address range of one process.
 */
class Vma
{
  public:
    Vma(std::uint32_t id, Gva start, std::uint64_t bytes, VmaKind kind,
        std::uint32_t file_id = 0, std::uint64_t file_offset_pages = 0)
        : id_(id), start_(start), bytes_(bytes), kind_(kind),
          fileId_(file_id), fileOffsetPages_(file_offset_pages)
    {}

    std::uint32_t id() const { return id_; }
    Gva start() const { return start_; }
    Gva end() const { return start_ + bytes_; }
    std::uint64_t bytes() const { return bytes_; }
    std::uint64_t pages() const { return bytes_ >> kPageShift; }
    VmaKind kind() const { return kind_; }
    std::uint32_t fileId() const { return fileId_; }
    /** File page that vpn of this file VMA maps. */
    std::uint64_t
    filePage(Vpn vpn) const
    {
        return fileOffsetPages_ + (vpn - start_.pageNumber());
    }

    bool
    contains(Gva a) const
    {
        return a >= start_ && a < end();
    }

    /** True iff the order-sized region around vpn lies inside the VMA. */
    bool
    coversAligned(Vpn vpn, unsigned order) const
    {
        const std::uint64_t n = pagesInOrder(order);
        Vpn base = vpn & ~(n - 1);
        return base >= start_.pageNumber() &&
               base + n <= start_.pageNumber() + pages();
    }

    // --- CA paging metadata -------------------------------------------
    //
    // The Offset FIFO (§III-C) is a plain ring of kMaxCaOffsets slots
    // indexed by two sequence numbers: offsetHead_ is the next record
    // to write, offsetTail_ the oldest live one. An Offset is only a
    // placement hint: the allocSpecific() that follows re-checks the
    // target, so a stale hint costs at worst one extra placement
    // attempt.

    /** Record a new Offset (FIFO eviction beyond kMaxCaOffsets). */
    void
    pushCaOffset(Vpn origin_vpn, std::int64_t offset_pages)
    {
        offsetRing_[offsetHead_ % kMaxCaOffsets] =
            CaOffset{origin_vpn, offset_pages};
        ++offsetHead_;
        if (offsetHead_ - offsetTail_ > kMaxCaOffsets)
            ++offsetTail_;
    }

    /**
     * The Offset whose origin vpn is closest to the faulting vpn
     * (§III-C: "picks the Offset associated with the virtual address
     * closest to the currently faulting"). Ties keep the oldest
     * record.
     */
    std::optional<CaOffset>
    nearestCaOffset(Vpn vpn) const
    {
        std::optional<CaOffset> best;
        std::uint64_t best_dist = ~std::uint64_t{0};
        for (std::uint64_t seq = offsetTail_; seq != offsetHead_; ++seq) {
            const CaOffset &rec = offsetRing_[seq % kMaxCaOffsets];
            const std::uint64_t dist = rec.originVpn > vpn
                                           ? rec.originVpn - vpn
                                           : vpn - rec.originVpn;
            if (!best || dist < best_dist) {
                best = rec;
                best_dist = dist;
            }
        }
        return best;
    }

    bool hasCaOffsets() const { return caOffsetCount() > 0; }

    std::size_t
    caOffsetCount() const
    {
        return offsetHead_ - offsetTail_;
    }

    /** Drop the oldest Offset (ablation hook for shallower FIFOs). */
    void
    popOldestCaOffset()
    {
        if (offsetTail_ != offsetHead_)
            ++offsetTail_;
    }

    /**
     * Replacement guard (§III-C, "Avoiding multithreading pitfalls"):
     * of all the faults whose fast-path Offset failed, only the first
     * triggers the expensive re-placement; the losers retry their fast
     * path against the winner's fresh Offset. Returns true if the
     * caller acquired the right to re-place. The simulator raises one
     * fault at a time, so the guard is a plain flag, and the race is
     * pinned by a deterministic interleaving test that holds the guard
     * itself.
     */
    bool
    tryBeginReplacement()
    {
        if (replacementActive_)
            return false;
        replacementActive_ = true;
        return true;
    }

    void
    endReplacement()
    {
        replacementActive_ = false;
    }

    bool
    replacementActive() const
    {
        return replacementActive_;
    }

    // --- accounting -----------------------------------------------------

    /** Pages actually touched by the application. */
    std::uint64_t touchedPages = 0;
    /** Pages of physical memory allocated to back this VMA. */
    std::uint64_t allocatedPages = 0;
    /** Lazily sized per-page touched bits (bloat accounting). */
    std::vector<bool> touchedBitmap;
    /**
     * Touched pages per whole huge-aligned 2 MiB region inside the VMA
     * (Ingens' promotion test), sized together with touchedBitmap.
     * Region k covers vpns [hugeRegionBase(k), +512); head and tail
     * pages outside every whole region count toward none.
     */
    std::vector<std::uint16_t> hugeTouched;

    /** First vpn of the i-th whole huge-aligned region. */
    Vpn
    hugeRegionBase(std::uint64_t i) const
    {
        return alignUp(start_.pageNumber(), pagesInOrder(kHugeOrder)) +
               i * pagesInOrder(kHugeOrder);
    }

    /** Number of whole huge-aligned regions inside the VMA. */
    std::uint64_t
    hugeRegions() const
    {
        const Vpn end = start_.pageNumber() + pages();
        const Vpn first = hugeRegionBase(0);
        return end > first ? (end - first) >> kHugeOrder : 0;
    }

  private:
    std::uint32_t id_;
    Gva start_;
    std::uint64_t bytes_;
    VmaKind kind_;
    std::uint32_t fileId_;
    std::uint64_t fileOffsetPages_;

    std::array<CaOffset, kMaxCaOffsets> offsetRing_{};
    /** Next sequence number to write / oldest live sequence. */
    std::uint64_t offsetHead_ = 0;
    std::uint64_t offsetTail_ = 0;
    bool replacementActive_ = false;
};

} // namespace contig

#endif // CONTIG_MM_VMA_HH
