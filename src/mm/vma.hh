/**
 * @file
 * Virtual memory areas (the `vm_area_struct` analogue), carrying the
 * CA-paging metadata the paper adds: a FIFO of up to 64 per-sub-region
 * Offsets (paper §III-C, "Dealing with external fragmentation") and the
 * replacement guard used to serialize racing re-placements across
 * concurrent faults (§III-C, "Avoiding multithreading pitfalls").
 */

#ifndef CONTIG_MM_VMA_HH
#define CONTIG_MM_VMA_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/align.hh"
#include "base/sync.hh"
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
    std::uint64_t fileOffsetPages() const { return fileOffsetPages_; }

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
    // The Offset FIFO is a lock-free ring, matching the paper's §III-C
    // design: faulting threads publish new Offsets with plain atomic
    // stores after reserving a sequence number, and readers scan the
    // ring without any lock. A reader racing a writer can observe a
    // half-updated slot; that is *by design* — an Offset is only a
    // placement hint, and the subsequent allocSpecific() re-validates
    // the target under the zone lock, so a stale or torn hint costs at
    // worst one extra placement attempt.

    /** Record a new Offset (FIFO eviction beyond kMaxCaOffsets). */
    void
    pushCaOffset(Vpn origin_vpn, std::int64_t offset_pages)
    {
        const std::uint64_t seq =
            offsetHead_.fetch_add(1, std::memory_order_acq_rel);
        OffsetSlot &slot = offsetRing_[seq % kMaxCaOffsets];
        slot.originVpn.store(origin_vpn, std::memory_order_relaxed);
        slot.offsetPages.store(offset_pages, std::memory_order_relaxed);
        // Retire overwritten sequence numbers so count/pop stay in
        // step with the ring capacity.
        std::uint64_t retries = 0;
        std::uint64_t tail = offsetTail_.load(std::memory_order_relaxed);
        while (seq + 1 - tail > kMaxCaOffsets &&
               !offsetTail_.compare_exchange_weak(
                   tail, seq + 1 - kMaxCaOffsets,
                   std::memory_order_acq_rel, std::memory_order_relaxed)) {
            ++retries;
        }
        noteOffsetRingRetries(retries);
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
        std::uint64_t head = offsetHead_.load(std::memory_order_acquire);
        std::uint64_t tail = offsetTail_.load(std::memory_order_acquire);
        if (head - tail > kMaxCaOffsets)
            tail = head - kMaxCaOffsets;
        std::optional<CaOffset> best;
        std::uint64_t best_dist = ~std::uint64_t{0};
        for (std::uint64_t seq = tail; seq != head; ++seq) {
            const OffsetSlot &slot = offsetRing_[seq % kMaxCaOffsets];
            const Vpn origin =
                slot.originVpn.load(std::memory_order_relaxed);
            const std::int64_t off =
                slot.offsetPages.load(std::memory_order_relaxed);
            std::uint64_t dist =
                origin > vpn ? origin - vpn : vpn - origin;
            if (!best || dist < best_dist) {
                best = CaOffset{origin, off};
                best_dist = dist;
            }
        }
        return best;
    }

    bool hasCaOffsets() const { return caOffsetCount() > 0; }

    std::size_t
    caOffsetCount() const
    {
        std::uint64_t head = offsetHead_.load(std::memory_order_acquire);
        std::uint64_t tail = offsetTail_.load(std::memory_order_acquire);
        return std::min<std::uint64_t>(head - tail, kMaxCaOffsets);
    }

    /** Drop the oldest Offset (ablation hook for shallower FIFOs). */
    void
    popOldestCaOffset()
    {
        std::uint64_t retries = 0;
        std::uint64_t tail = offsetTail_.load(std::memory_order_acquire);
        while (offsetHead_.load(std::memory_order_acquire) != tail &&
               !offsetTail_.compare_exchange_weak(
                   tail, tail + 1, std::memory_order_acq_rel,
                   std::memory_order_acquire)) {
            ++retries;
        }
        noteOffsetRingRetries(retries);
    }

    /**
     * Fold lost Offset-ring CAS rounds into the shared
     * "vma.offset_ring" lock site. Uncontended pushes/pops never get
     * here with retries != 0, so the common path pays nothing.
     */
    static void
    noteOffsetRingRetries(std::uint64_t retries)
    {
#if CONTIG_LOCK_STATS
        if (retries)
            if (LockSite *site = LockStatsRegistry::offsetRingSite())
                site->noteRetries(retries);
#else
        (void)retries;
#endif
    }

    /**
     * Replacement guard (§III-C, "Avoiding multithreading pitfalls"):
     * a CAS gate so that of all the threads whose fast-path Offset
     * failed, only the first triggers the expensive re-placement; the
     * losers retry their fast path against the winner's fresh Offset.
     * Returns true if the caller acquired the right to re-place.
     */
    bool
    tryBeginReplacement()
    {
        bool expected = false;
        return replacementActive_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel,
            std::memory_order_acquire);
    }

    void
    endReplacement()
    {
        replacementActive_.store(false, std::memory_order_release);
    }

    bool
    replacementActive() const
    {
        return replacementActive_.load(std::memory_order_acquire);
    }

    /**
     * Per-VMA fault mutex (the `mmap_sem`-sharding analogue): faults
     * within one VMA serialize here; faults on different VMAs of the
     * same process proceed in parallel under the kernel's shared lock.
     */
    SpinLock &faultLock() { return faultLock_; }

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

    /** One ring slot; the pair is read/written with independent
     *  relaxed atomics (torn reads are benign, see above). */
    struct OffsetSlot
    {
        std::atomic<Vpn> originVpn{0};
        std::atomic<std::int64_t> offsetPages{0};
    };

    std::array<OffsetSlot, kMaxCaOffsets> offsetRing_;
    /** Next sequence number to publish / oldest live sequence. */
    std::atomic<std::uint64_t> offsetHead_{0};
    std::atomic<std::uint64_t> offsetTail_{0};
    std::atomic<bool> replacementActive_{false};
    SpinLock faultLock_;
};

} // namespace contig

#endif // CONTIG_MM_VMA_HH
