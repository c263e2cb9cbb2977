#include "phys/frame.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

namespace contig
{

FrameArray::FrameArray(std::uint64_t n_frames) : size_(n_frames)
{
    if (n_frames == 0)
        return;
    if (n_frames > kMaxFrames) {
        fatal("cannot build a mem_map of %llu frames: frame links hold "
              "at most %llu",
              static_cast<unsigned long long>(n_frames),
              static_cast<unsigned long long>(kMaxFrames));
    }
    // Anonymous mappings read as zero until written, and an all-zero
    // Frame is the free, unowned state: no per-frame initialisation.
    void *p = mmap(nullptr, n_frames * sizeof(Frame), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        fatal("cannot map a mem_map of %llu frames: %s",
              static_cast<unsigned long long>(n_frames),
              std::strerror(errno));
    }
    frames_ = static_cast<Frame *>(p);
    // Only the pages a descriptor write touches become resident. A
    // host that backs anonymous memory with transparent huge pages by
    // default would make each 2 MiB around a touched page resident, so
    // opt the mem_map out (advice only: a kernel without THP refuses
    // it, and the mapping works either way).
    madvise(p, n_frames * sizeof(Frame), MADV_NOHUGEPAGE);
}

FrameArray::~FrameArray()
{
    if (frames_)
        munmap(frames_, size_ * sizeof(Frame));
}

} // namespace contig
