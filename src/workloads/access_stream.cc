#include "workloads/access_stream.hh"

#include <algorithm>

#include "base/logging.hh"
#include "workloads/workloads.hh"

namespace contig
{

AccessStream::AccessStream(Workload &wl, std::uint64_t total,
                           std::uint64_t seed,
                           std::uint64_t chunk_accesses)
    : wl_(wl), rng_(seed), total_(total),
      buf_(chunk_accesses ? chunk_accesses : kDefaultChunk)
{
}

std::size_t
AccessStream::next(const MemAccess *&chunk)
{
    contig_assert(produced_ <= total_, "stream overran its total");
    const std::uint64_t left = total_ - produced_;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, buf_.size()));
    if (n)
        wl_.fillAccesses(rng_, buf_.data(), n);
    produced_ += n;
    chunk = buf_.data();
    return n;
}

} // namespace contig
