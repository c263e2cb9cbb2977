#include "mm/page_cache.hh"

#include <algorithm>

#include "base/logging.hh"
#include "mm/kernel.hh"

namespace contig
{

std::uint64_t
File::cachedPages() const
{
    return std::count_if(pages_.begin(), pages_.end(),
                         [](Pfn p) { return p != kInvalidPfn; });
}

File &
PageCache::createFile(std::uint64_t size_pages)
{
    contig_assert(size_pages > 0, "empty file");
    files_.push_back(
        std::make_unique<File>(files_.size(), size_pages));
    return *files_.back();
}

File &
PageCache::file(std::uint32_t id)
{
    contig_assert(id < files_.size(), "unknown file %u", id);
    return *files_[id];
}

const File &
PageCache::file(std::uint32_t id) const
{
    return const_cast<PageCache *>(this)->file(id);
}

void
PageCache::dropCaches(Kernel &kernel)
{
    for (auto &file : files_) {
        bool fully_dropped = true;
        for (std::uint64_t p = 0; p < file->sizePages(); ++p) {
            if (!file->isCached(p))
                continue;
            Pfn pfn = file->frameFor(p);
            // Pages still mapped by some process are not reclaimable.
            if (kernel.physMem().frame(pfn).mapCount > 0) {
                fully_dropped = false;
                continue;
            }
            file->evict(p);
            kernel.putFrame(pfn, 0);
        }
        if (fully_dropped)
            file->caOffsetPages.reset();
    }
}

} // namespace contig
