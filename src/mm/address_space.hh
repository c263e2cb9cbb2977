/**
 * @file
 * A process address space: the ordered VMA set plus the page table
 * translating it. VMA bases are assigned deterministically with large
 * guard gaps, mimicking mmap's top-down placement enough for the
 * contiguity experiments.
 */

#ifndef CONTIG_MM_ADDRESS_SPACE_HH
#define CONTIG_MM_ADDRESS_SPACE_HH

#include <map>
#include <memory>
#include <optional>

#include "mm/page_table.hh"
#include "mm/vma.hh"

namespace contig
{

/**
 * VMA container + page table for one process (or, for a VM's backing,
 * the host process that owns the guest RAM region).
 */
class AddressSpace
{
  public:
    explicit AddressSpace(PageTable::NodeAlloc node_alloc = nullptr,
                          PageTable::NodeFree node_free = nullptr,
                          unsigned pt_levels = kPtLevels)
        : pageTable_(std::move(node_alloc), std::move(node_free),
                     pt_levels)
    {}

    /**
     * Create a VMA of `bytes` (rounded up to a page). If base is not
     * given, the next free slot after a guard gap is used.
     */
    Vma &mmap(std::uint64_t bytes, VmaKind kind = VmaKind::Anon,
              std::optional<Gva> base = std::nullopt,
              std::uint32_t file_id = 0,
              std::uint64_t file_offset_pages = 0);

    /** Remove a VMA; the caller must already have unmapped its pages. */
    void munmap(Vma &vma);

    /** The VMA containing gva, or nullptr. */
    Vma *findVma(Gva gva);
    const Vma *findVma(Gva gva) const;

    PageTable &pageTable() { return pageTable_; }
    const PageTable &pageTable() const { return pageTable_; }

    std::size_t vmaCount() const { return vmas_.size(); }

    /** Visit VMAs in ascending base order. */
    template <typename Fn>
    void
    forEachVma(Fn &&fn)
    {
        for (auto &kv : vmas_)
            fn(*kv.second);
    }

    template <typename Fn>
    void
    forEachVma(Fn &&fn) const
    {
        for (const auto &kv : vmas_)
            fn(*kv.second);
    }

  private:
    std::map<Addr, std::unique_ptr<Vma>> vmas_;
    PageTable pageTable_;
    std::uint32_t nextVmaId_ = 1;
    /** Deterministic mmap cursor (grows upward with guard gaps). */
    Addr mmapCursor_ = Addr{0x5500} << 32;
};

} // namespace contig

#endif // CONTIG_MM_ADDRESS_SPACE_HH
