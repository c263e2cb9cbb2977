#include "spot/spot.hh"

#include "obs/metrics.hh"

namespace contig
{

SpotEngine::SpotEngine(const SpotConfig &cfg)
    : cfg_(cfg), table_(cfg.sets, cfg.ways),
      offsets_(cfg.sets * table_.stride(), 0),
      confidence_(cfg.sets * table_.stride(), 0)
{
}

unsigned
SpotEngine::setOf(Addr pc) const
{
    // Fold the PC a little before indexing: instruction addresses
    // share low-bit alignment.
    return static_cast<unsigned>(((pc >> 6) ^ (pc >> 12)) % cfg_.sets);
}

std::optional<std::int64_t>
SpotEngine::predict(Addr pc)
{
    ++stats_.lookups;
    pending_.reset();
    pendingPc_ = pc;
    unsigned lane = 0;
    if (table_.find(setOf(pc), pc, lane) &&
        confidence_[lane] > cfg_.confidenceThreshold) {
        table_.touch(lane);
        pending_ = offsets_[lane];
    }
    return pending_;
}

SpotOutcome
SpotEngine::update(Addr pc, std::int64_t true_offset, bool contig_ok)
{
    // Classify the in-flight speculation first.
    SpotOutcome outcome;
    if (pending_ && pendingPc_ == pc) {
        outcome = (*pending_ == true_offset) ? SpotOutcome::Correct
                                             : SpotOutcome::Mispredicted;
    } else {
        outcome = SpotOutcome::NoPrediction;
    }
    pending_.reset();
    switch (outcome) {
      case SpotOutcome::Correct:
        ++stats_.correct;
        break;
      case SpotOutcome::Mispredicted:
        ++stats_.mispredicted;
        break;
      case SpotOutcome::NoPrediction:
        ++stats_.noPrediction;
        break;
    }

    const bool fills_allowed = contig_ok || !cfg_.requireContigBits;

    const unsigned set = setOf(pc);
    unsigned hit = 0;
    if (table_.find(set, pc, hit)) {
        const unsigned i = hit;
        // Confidence bookkeeping happens on every walk, speculated or
        // not (§IV-C, "predictions are still calculated and compared").
        if (offsets_[i] == true_offset) {
            if (confidence_[i] < 3)
                ++confidence_[i];
        } else if (confidence_[i] > 0) {
            --confidence_[i];
        }
        // Offsets are replaced only at zero confidence, and only with
        // offsets the OS marked as belonging to large mappings.
        if (confidence_[i] == 0 && offsets_[i] != true_offset) {
            if (fills_allowed) {
                offsets_[i] = true_offset;
                confidence_[i] = 1;
                ++stats_.offsetReplacements;
            }
        }
        table_.touch(i);
        return outcome;
    }

    // No entry for this PC: try to fill one.
    if (!fills_allowed) {
        ++stats_.fillsBlockedByBits;
        return outcome;
    }
    int victim = -1;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        const unsigned i = table_.lane(set, w);
        if (table_.empty(i)) {
            victim = static_cast<int>(i);
            break;
        }
        // Only zero-confidence entries may be evicted; LRU among them.
        if (confidence_[i] == 0 &&
            (victim < 0 || table_.lastUse(i) < table_.lastUse(victim))) {
            victim = static_cast<int>(i);
        }
    }
    if (victim < 0)
        return outcome; // set full of confident entries: drop the fill
    const unsigned i = static_cast<unsigned>(victim);
    table_.put(i, pc);
    offsets_[i] = true_offset;
    confidence_[i] = 1;
    ++stats_.fills;
    return outcome;
}

void
SpotEngine::flush()
{
    table_.flush();
    pending_.reset();
}

void
SpotEngine::collectMetrics(obs::MetricSink &sink) const
{
    sink.counter("lookups", stats_.lookups);
    sink.counter("correct", stats_.correct);
    sink.counter("mispredictions", stats_.mispredicted);
    sink.counter("no_prediction", stats_.noPrediction);
    sink.counter("fills", stats_.fills);
    sink.counter("fills_blocked_by_bits", stats_.fillsBlockedByBits);
    sink.counter("offset_replacements", stats_.offsetReplacements);
}

} // namespace contig
