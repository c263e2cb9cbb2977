/**
 * @file
 * Batched translation replay. A ReplayEngine drives one
 * TranslationSim chunk by chunk, fed by an AccessStream, and exports
 * the replay position (chunks and accesses done) as the
 * xlat.replay.* counters.
 *
 * Determinism contract: replaying a stream in chunks of any size is
 * instruction-identical to handing the same accesses to
 * TranslationSim::accessChunk one at a time — chunk size is pure
 * batching (tests/tlb/replay_test.cc and the fig13/fig14 goldens pin
 * this byte-for-byte).
 */

#ifndef CONTIG_TLB_REPLAY_HH
#define CONTIG_TLB_REPLAY_HH

#include <memory>
#include <vector>

#include "obs/metrics.hh"
#include "tlb/translation_sim.hh"

namespace contig
{

class ReplayEngine
{
  public:
    /**
     * Native replay over `pt`. `threads` must be 1: replay runs one
     * pipeline, and the parameter stays only because
     * perfbench/perfbench.cc still passes it.
     */
    ReplayEngine(const XlatConfig &cfg, unsigned threads,
                 const PageTable &pt);

    /** Virtualized replay over (guest_pt, vm); `threads` as above. */
    ReplayEngine(const XlatConfig &cfg, unsigned threads,
                 const PageTable &guest_pt, const VirtualMachine &vm);

    ReplayEngine(const ReplayEngine &) = delete;
    ReplayEngine &operator=(const ReplayEngine &) = delete;

    /** Install the extracted segments (Rmm/Ds). */
    void setSegments(const std::vector<Seg> &segs);

    /** Classify attribution events by contiguity class (--attrib). */
    void
    setContigIndex(std::shared_ptr<const obs::ContigClassIndex> idx);

    /** Replay one chunk through the pipeline. */
    void replayChunk(const MemAccess *a, std::size_t n);

    /** The pipeline's statistics so far. */
    const XlatStats &mergedStats() const { return sim_.stats(); }

    std::uint64_t chunks() const { return chunks_; }
    std::uint64_t accesses() const { return sim_.stats().accesses; }
    const TranslationSim &sim() const { return sim_; }

  private:
    TranslationSim sim_;
    std::uint64_t chunks_ = 0;
    /** Declared last: its destructor absorbs the final counters. */
    obs::MetricSource metricSource_;
};

} // namespace contig

#endif // CONTIG_TLB_REPLAY_HH
