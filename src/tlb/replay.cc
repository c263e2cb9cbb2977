#include "tlb/replay.hh"

#include "base/logging.hh"

namespace contig
{

namespace
{

/** The exported xlat.replay.{chunks,accesses} position counters. */
obs::MetricSource
positionSource(const ReplayEngine &engine)
{
    return obs::MetricSource(
        obs::MetricRegistry::global(), "xlat.replay",
        [&engine](obs::MetricSink &sink) {
            sink.counter("chunks", engine.chunks());
            sink.counter("accesses", engine.accesses());
        });
}

} // namespace

// perfbench/perfbench.cc still passes the retired shard count, so the
// parameter stays until that file changes; anything but 1 is a bug.
ReplayEngine::ReplayEngine(const XlatConfig &cfg, unsigned threads,
                           const PageTable &pt)
    : sim_(cfg, pt), metricSource_(positionSource(*this))
{
    contig_assert(threads == 1, "replay runs one pipeline, got %u",
                  threads);
}

ReplayEngine::ReplayEngine(const XlatConfig &cfg, unsigned threads,
                           const PageTable &guest_pt,
                           const VirtualMachine &vm)
    : sim_(cfg, guest_pt, vm), metricSource_(positionSource(*this))
{
    contig_assert(threads == 1, "replay runs one pipeline, got %u",
                  threads);
}

void
ReplayEngine::setSegments(const std::vector<Seg> &segs)
{
    sim_.setSegments(segs);
}

void
ReplayEngine::setContigIndex(
    std::shared_ptr<const obs::ContigClassIndex> idx)
{
    sim_.setContigIndex(std::move(idx));
}

void
ReplayEngine::replayChunk(const MemAccess *a, std::size_t n)
{
    // Stamp the chunk ordinal into attribution exemplars (no-op when
    // --attrib is off).
    sim_.noteChunk(chunks_);
    sim_.accessChunk(a, n);
    ++chunks_;
}

} // namespace contig
