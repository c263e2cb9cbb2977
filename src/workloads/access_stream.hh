/**
 * @file
 * Chunked access-stream generator, the one access source translation
 * replay has. The replay engine does not pull accesses one at a time —
 * each pull was a virtual call into the workload plus RNG state
 * threading. AccessStream drains the workload's steady-state
 * generator into fixed-size contiguous MemAccess buffers, so the
 * consumer (ReplayEngine::replayChunk) sees plain arrays and the
 * workload's virtual dispatch happens once per chunk
 * (Workload::fillAccesses).
 *
 * Determinism: the stream owns its own Rng seeded at construction and
 * produces exactly the sequence `wl.nextAccess(rng)` would — chunk
 * boundaries never change what is generated, only how it is batched.
 * When `total` is not a multiple of the chunk size the final chunk is
 * exactly the remainder (`total % chunk`), and a zero-length stream
 * returns 0 from the first next() without touching the workload
 * (tests/workloads/workloads_test.cc pins both).
 */

#ifndef CONTIG_WORKLOADS_ACCESS_STREAM_HH
#define CONTIG_WORKLOADS_ACCESS_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "tlb/translation_sim.hh"

namespace contig
{

class Workload;

class AccessStream
{
  public:
    /** Default chunk: 4096 accesses (64 KiB of MemAccess, L2-sized). */
    static constexpr std::uint64_t kDefaultChunk = 4096;

    /**
     * Stream `total` accesses from `wl`, `chunk_accesses` at a time
     * (0 means kDefaultChunk). The final chunk may be short.
     */
    AccessStream(Workload &wl, std::uint64_t total, std::uint64_t seed,
                 std::uint64_t chunk_accesses = kDefaultChunk);

    /**
     * Generate the next chunk into the internal buffer. Returns its
     * size (0 when the stream is exhausted) and points `chunk` at the
     * buffer, which stays valid until the next call.
     */
    std::size_t next(const MemAccess *&chunk);

    /** Accesses generated so far. */
    std::uint64_t produced() const { return produced_; }
    /** Nominal chunk size (the final chunk may be short). */
    std::uint64_t chunkAccesses() const { return buf_.size(); }
    bool done() const { return produced_ == total_; }

  private:
    Workload &wl_;
    Rng rng_;
    std::uint64_t total_;
    std::uint64_t produced_ = 0;
    std::vector<MemAccess> buf_;
};

} // namespace contig

#endif // CONTIG_WORKLOADS_ACCESS_STREAM_HH
