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
}

FrameArray::~FrameArray()
{
    if (frames_)
        munmap(frames_, size_ * sizeof(Frame));
}

} // namespace contig
