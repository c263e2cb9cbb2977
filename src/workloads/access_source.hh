/**
 * @file
 * The abstract chunk source the replay pipeline consumes. Two
 * implementations exist: AccessStream (live synthetic generation,
 * optionally teeing every chunk to a .ctrace capture file) and
 * TraceReplaySource (decode a recorded .ctrace, producer thread ahead
 * of the replay engine). runTranslation only ever sees this
 * interface — the replay loop is identical whichever side of the
 * capture/replay boundary a run sits on.
 */

#ifndef CONTIG_WORKLOADS_ACCESS_SOURCE_HH
#define CONTIG_WORKLOADS_ACCESS_SOURCE_HH

#include <cstddef>
#include <cstdint>

#include "tlb/translation_sim.hh"

namespace contig
{

class AccessSource
{
  public:
    virtual ~AccessSource() = default;

    /**
     * Produce the next chunk. Returns its size (0 when the stream is
     * exhausted) and points `chunk` at a buffer that stays valid
     * until the next call.
     */
    virtual std::size_t next(const MemAccess *&chunk) = 0;

    /** Accesses delivered so far (includes any fast-forwarded ones). */
    virtual std::uint64_t produced() const = 0;

    /** Total accesses this source will deliver over its lifetime. */
    virtual std::uint64_t total() const = 0;

    /** Nominal chunk size (the final chunk may be short). */
    virtual std::uint64_t chunkAccesses() const = 0;

    bool done() const { return produced() == total(); }
};

} // namespace contig

#endif // CONTIG_WORKLOADS_ACCESS_SOURCE_HH
