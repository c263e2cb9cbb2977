#include "spot/spot.hh"

#include "base/logging.hh"
#include "obs/metrics.hh"

namespace contig
{

SpotEngine::SpotEngine(const SpotConfig &cfg)
    : cfg_(cfg), wayStride_(simd::padLanes(cfg.ways)),
      pcTags_(cfg.sets * simd::padLanes(cfg.ways), simd::kNoTag64),
      offsets_(cfg.sets * simd::padLanes(cfg.ways), 0),
      confidence_(cfg.sets * simd::padLanes(cfg.ways), 0),
      valid_(cfg.sets * simd::padLanes(cfg.ways), 0),
      lastUse_(cfg.sets * simd::padLanes(cfg.ways), 0),
      simd_(simd::enabled())
{
    contig_assert(cfg.sets > 0 && cfg.ways > 0, "degenerate SpOT table");
}

unsigned
SpotEngine::setOf(Addr pc) const
{
    // Fold the PC a little before indexing: instruction addresses
    // share low-bit alignment.
    return static_cast<unsigned>(((pc >> 6) ^ (pc >> 12)) % cfg_.sets);
}

int
SpotEngine::findWay(unsigned base, Addr pc) const
{
    return simd::findTag(&pcTags_[base], cfg_.ways, pc, simd_);
}

std::optional<std::int64_t>
SpotEngine::predict(Addr pc)
{
    ++stats_.lookups;
    pending_.reset();
    pendingPc_ = pc;
    const unsigned base = setOf(pc) * wayStride_;
    const int w = findWay(base, pc);
    if (w >= 0 && confidence_[base + w] > cfg_.confidenceThreshold) {
        lastUse_[base + w] = ++clock_;
        pending_ = offsets_[base + w];
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

    const unsigned base = setOf(pc) * wayStride_;
    const int hit = findWay(base, pc);
    if (hit >= 0) {
        const unsigned i = base + hit;
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
        lastUse_[i] = ++clock_;
        return outcome;
    }

    // No entry for this PC: try to fill one.
    if (!fills_allowed) {
        ++stats_.fillsBlockedByBits;
        return outcome;
    }
    int victim = -1;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        const unsigned i = base + w;
        if (!valid_[i]) {
            victim = static_cast<int>(w);
            break;
        }
        // Only zero-confidence entries may be evicted; LRU among them.
        if (confidence_[i] == 0 &&
            (victim < 0 || lastUse_[i] < lastUse_[base + victim])) {
            victim = static_cast<int>(w);
        }
    }
    if (victim < 0)
        return outcome; // set full of confident entries: drop the fill
    contig_assert(pc != simd::kNoTag64, "pc collides with the "
                  "invalid-lane sentinel");
    const unsigned i = base + victim;
    valid_[i] = 1;
    pcTags_[i] = pc;
    offsets_[i] = true_offset;
    confidence_[i] = 1;
    lastUse_[i] = ++clock_;
    ++stats_.fills;
    return outcome;
}

void
SpotEngine::flush()
{
    for (std::size_t i = 0; i < valid_.size(); ++i) {
        valid_[i] = 0;
        pcTags_[i] = simd::kNoTag64;
    }
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
