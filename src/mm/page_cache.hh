/**
 * @file
 * A minimal page cache: files whose pages are allocated on first read
 * (with readahead) and outlive the processes mapping them — the
 * long-lived allocations the paper identifies as a fragmentation
 * source that CA paging tames by allocating them contiguously
 * (§III-C, "Supported faults"). Each file is the `struct
 * address_space` analogue and carries its own CA Offset attribute.
 */

#ifndef CONTIG_MM_PAGE_CACHE_HH
#define CONTIG_MM_PAGE_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "base/types.hh"

namespace contig
{

class Kernel;

/** Pages fetched per readahead batch. */
constexpr std::uint64_t kReadaheadPages = 16;

/**
 * One cached file: a sparse array of page-cache frames plus CA
 * paging's per-file Offset.
 */
class File
{
  public:
    File(std::uint32_t id, std::uint64_t size_pages)
        : id_(id), pages_(size_pages, kInvalidPfn)
    {}

    std::uint32_t id() const { return id_; }
    std::uint64_t sizePages() const { return pages_.size(); }

    bool
    isCached(std::uint64_t file_page) const
    {
        return pages_[file_page] != kInvalidPfn;
    }

    Pfn frameFor(std::uint64_t file_page) const
    { return pages_[file_page]; }

    void
    install(std::uint64_t file_page, Pfn pfn)
    {
        pages_[file_page] = pfn;
    }

    void evict(std::uint64_t file_page) { pages_[file_page] = kInvalidPfn; }

    /** CA paging metadata: offset = file_page - pfn for the file's run. */
    std::optional<std::int64_t> caOffsetPages;

    std::uint64_t cachedPages() const;

  private:
    std::uint32_t id_;
    std::vector<Pfn> pages_;
};

/**
 * The kernel's page cache: owns the files. Cache misses are filled by
 * the FaultEngine (readahead-window fills, placement steered by the
 * active policy); eviction lives here.
 */
class PageCache
{
  public:
    File &createFile(std::uint64_t size_pages);

    File &file(std::uint32_t id);
    const File &file(std::uint32_t id) const;

    /** Drop every cached page of every file, freeing the frames. */
    void dropCaches(Kernel &kernel);

    std::size_t fileCount() const { return files_.size(); }

  private:
    std::vector<std::unique_ptr<File>> files_;
};

} // namespace contig

#endif // CONTIG_MM_PAGE_CACHE_HH
