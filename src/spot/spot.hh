/**
 * @file
 * SpOT — Speculative Offset-based Address Translation (paper §IV).
 * A PC-indexed, set-associative prediction table of
 * [2-D offset, permissions] tuples sits beside the L2 TLB miss path:
 *
 *  - on a miss, the entry for the faulting instruction's PC (if its
 *    2-bit confidence counter is above threshold) predicts
 *    hPA = gVA - offset and execution continues speculatively while
 *    the nested walk verifies in the background;
 *  - correct predictions hide the entire walk latency; mispredictions
 *    add a pipeline-flush penalty on top of it; low confidence means
 *    no speculation and the full walk cost;
 *  - at the end of every walk the table is updated: matching offsets
 *    gain confidence, mismatching ones lose it, and an entry's offset
 *    is replaced only when its counter reaches zero;
 *  - fills are gated by the OS-maintained PTE contiguity bits (both
 *    guest and nested in virtualized mode) so offsets of small
 *    scattered mappings cannot thrash the table (§IV-C).
 */

#ifndef CONTIG_SPOT_SPOT_HH
#define CONTIG_SPOT_SPOT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/tag_sets.hh"
#include "base/types.hh"

namespace contig
{

namespace obs { class MetricSink; }

/** SpOT configuration (Table II: 32-entry, 4-way set associative). */
struct SpotConfig
{
    unsigned sets = 8;
    unsigned ways = 4;
    /** Pipeline-flush penalty on a misprediction (cycles). */
    Cycles flushPenaltyCycles = 20;
    /** Confidence threshold: speculate only when counter > this. */
    std::uint8_t confidenceThreshold = 1;
    /** Gate prediction-table fills on the PTE contiguity bits. */
    bool requireContigBits = true;
};

/** Per-walk outcome as the paper's Fig. 14 categorizes it. */
enum class SpotOutcome : std::uint8_t
{
    Correct,      //!< speculated, verified equal: walk latency hidden
    Mispredicted, //!< speculated wrong: walk + flush penalty
    NoPrediction, //!< no confident entry: full walk cost
};

struct SpotStats
{
    std::uint64_t lookups = 0;
    std::uint64_t correct = 0;
    std::uint64_t mispredicted = 0;
    std::uint64_t noPrediction = 0;
    std::uint64_t fills = 0;
    std::uint64_t fillsBlockedByBits = 0;
    std::uint64_t offsetReplacements = 0;

    /** Fraction of lookups that speculated at all (Fig. 14's bars). */
    double
    coverage() const
    {
        return lookups ? static_cast<double>(correct + mispredicted) /
                             static_cast<double>(lookups)
                       : 0.0;
    }

    /** Fraction of speculated lookups that verified correct. */
    double
    accuracy() const
    {
        const std::uint64_t spec = correct + mispredicted;
        return spec ? static_cast<double>(correct) /
                          static_cast<double>(spec)
                    : 0.0;
    }
};

/**
 * The prediction engine. Drive it with predict() on an L2-TLB miss,
 * before the walk, and update() once the walk is done; the outcome
 * update() returns feeds the performance model (Table IV).
 */
class SpotEngine
{
  public:
    explicit SpotEngine(const SpotConfig &cfg = {});

    /**
     * L2-TLB miss at `pc`: returns the predicted offset if the engine
     * speculates, nullopt otherwise.
     */
    std::optional<std::int64_t> predict(Addr pc);

    /**
     * Verification walk finished: the true offset for this pc is
     * known. `contig_ok` carries the PTE contiguity-bit gate (guest
     * AND nested bits in virtualized mode). Returns how the earlier
     * prediction fared.
     */
    SpotOutcome update(Addr pc, std::int64_t true_offset, bool contig_ok);

    const SpotStats &stats() const { return stats_; }
    const SpotConfig &config() const { return cfg_; }

    /** Report prediction-outcome counters into a metric sink. */
    void collectMetrics(obs::MetricSink &sink) const;

    void flush();

  private:
    unsigned setOf(Addr pc) const;

    SpotConfig cfg_;
    // The PC tags and LRU stamps; offsets_ and confidence_ are
    // parallel lanes indexed by the table's lane numbers.
    TagSets table_;
    std::vector<std::int64_t> offsets_;
    std::vector<std::uint8_t> confidence_;
    SpotStats stats_;

    /** Prediction issued between predict() and update(). */
    std::optional<std::int64_t> pending_;
    Addr pendingPc_ = 0;
};

} // namespace contig

#endif // CONTIG_SPOT_SPOT_HH
