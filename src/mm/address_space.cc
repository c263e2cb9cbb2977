#include "mm/address_space.hh"

#include "base/align.hh"
#include "base/logging.hh"

namespace contig
{

Vma &
AddressSpace::mmap(std::uint64_t bytes, VmaKind kind,
                   std::optional<Gva> base, std::uint32_t file_id,
                   std::uint64_t file_offset_pages)
{
    bytes = alignUp(bytes, kPageSize);
    contig_assert(bytes > 0, "mmap of zero bytes");

    Gva start;
    if (base) {
        start = base->pageBase();
        // Keep the automatic cursor beyond explicitly placed VMAs
        // (fork copies parent VMAs at their original addresses).
        mmapCursor_ = std::max(mmapCursor_,
                               start.value + alignUp(bytes, kHugeSize) +
                                   (Addr{16} << 20));
    } else {
        // Huge-page-align fresh VMAs, as glibc/TCMalloc arrange for
        // big allocations, so THP is applicable from the first page.
        // Skip past any existing VMA the candidate would overlap.
        Addr cand = alignUp(mmapCursor_, kHugeSize);
        for (;;) {
            auto next = vmas_.upper_bound(cand);
            bool clear = true;
            if (next != vmas_.begin()) {
                auto prev = std::prev(next);
                if (prev->second->end().value > cand) {
                    cand = alignUp(prev->second->end().value, kHugeSize);
                    clear = false;
                }
            }
            if (clear && next != vmas_.end() &&
                cand + bytes > next->first) {
                cand = alignUp(next->second->end().value, kHugeSize);
                clear = false;
            }
            if (clear)
                break;
        }
        start = Gva{cand};
        mmapCursor_ = start.value + alignUp(bytes, kHugeSize) +
                      (Addr{16} << 20); // 16 MiB guard gap
    }

    // Refuse overlap.
    auto it = vmas_.upper_bound(start.value);
    if (it != vmas_.end())
        contig_assert(start.value + bytes <= it->first, "VMA overlap");
    if (it != vmas_.begin()) {
        auto prev = std::prev(it);
        contig_assert(prev->second->end().value <= start.value,
                      "VMA overlap");
    }

    auto vma = std::make_unique<Vma>(nextVmaId_++, start, bytes, kind,
                                     file_id, file_offset_pages);
    Vma &ref = *vma;
    vmas_.emplace(start.value, std::move(vma));
    return ref;
}

void
AddressSpace::munmap(Vma &vma)
{
    auto it = vmas_.find(vma.start().value);
    contig_assert(it != vmas_.end(), "munmap of unknown VMA");
    vmas_.erase(it);
}

Vma *
AddressSpace::findVma(Gva gva)
{
    auto it = vmas_.upper_bound(gva.value);
    if (it == vmas_.begin())
        return nullptr;
    --it;
    Vma *vma = it->second.get();
    return vma->contains(gva) ? vma : nullptr;
}

const Vma *
AddressSpace::findVma(Gva gva) const
{
    return const_cast<AddressSpace *>(this)->findVma(gva);
}

} // namespace contig
