/**
 * @file
 * The MetricRegistry: one hierarchical namespace of metrics
 * ("kernel.buddy.split_count", "xlat.spot.mispredictions", ...) that
 * every subsystem reports into, replacing per-bench ad-hoc poking of
 * Stats structs. Two reporting styles coexist:
 *
 *  - *owned* metrics: stored in the registry itself; counters and
 *    summaries are also updated in place through stable references
 *    (phase timers and cross-instance accumulators use these);
 *  - *sources*: a live object (a Kernel, a TranslationSim) registers
 *    a collect callback under a prefix; snapshot() pulls its current
 *    values. When the object dies, its final values are folded into
 *    the owned metrics, so totals survive short-lived instances —
 *    benches that create one system per table row still end with a
 *    complete "metrics" block.
 *
 * Samples with the same name merge, each type by its one exact rule:
 * counters add, summaries combine count/sum/min/max, histograms add
 * bucket-wise. A point value (free pages, a latency percentile) is a
 * one-sample summary, so merged kernels keep how many reported it and
 * its range rather than a bare total. This is what makes per-zone
 * buddy stats appear as one "buddy.*" group and host+guest kernels
 * distinguishable only by their prefix.
 */

#ifndef CONTIG_OBS_METRICS_HH
#define CONTIG_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/stats.hh"

namespace contig
{

class JsonWriter;

namespace obs
{

enum class MetricType : std::uint8_t
{
    Counter,   //!< monotonically increasing event count
    Summary,   //!< count/sum/min/max/mean of a sample stream
    Histogram, //!< log2-bucketed distribution
};

/** One named metric value, as produced by a snapshot. */
struct MetricSample
{
    MetricType type = MetricType::Counter;
    std::uint64_t counter = 0;
    Summary summary;
    /** Histogram bucket weights; bucket i counts [2^i, 2^(i+1)). */
    std::vector<std::uint64_t> buckets;

    /** Merge another sample of the same name into this one. */
    void mergeFrom(const MetricSample &other);
};

using SampleMap = std::map<std::string, MetricSample, std::less<>>;

/**
 * The output surface a source's collect callback writes into. Names
 * are relative; Scope pushes a "prefix." segment for a nested
 * component (so a Zone can report its buddy under "buddy." without
 * knowing who owns the zone).
 */
class MetricSink
{
  public:
    void counter(std::string_view name, std::uint64_t v);
    void summary(std::string_view name, const Summary &s);
    /** A point value: one sample of summary `name`. */
    void summary(std::string_view name, double v);
    void histogram(std::string_view name, const Log2Histogram &h);

    /** RAII prefix segment: all emissions get "<prefix>." prepended. */
    class Scope
    {
      public:
        Scope(MetricSink &sink, std::string_view prefix);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        MetricSink &sink_;
        std::size_t savedLen_;
    };

    const SampleMap &samples() const { return samples_; }

  private:
    MetricSample &at(std::string_view name, MetricType type);

    std::string prefix_;
    SampleMap samples_;
};

/**
 * The registry. A process-wide instance (global()) backs the benches;
 * tests can create private instances.
 */
class MetricRegistry
{
  public:
    using CollectFn = std::function<void(MetricSink &)>;
    using SourceId = std::uint64_t;

    static MetricRegistry &global();

    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    // --- owned metrics (references stay valid for the registry's
    // lifetime; storage is node-based) ---------------------------------

    std::uint64_t &counter(std::string_view name);
    Summary &summary(std::string_view name);

    // --- sources ------------------------------------------------------

    /**
     * Register a live source. Every name it emits is prefixed with
     * "<prefix>.". Returns an id for removeSource().
     */
    SourceId addSource(std::string prefix, CollectFn fn);

    /**
     * Remove a source; by default its final values are absorbed into
     * the owned metrics so they keep contributing to snapshots.
     */
    void removeSource(SourceId id, bool absorb_final = true);

    std::size_t sourceCount() const { return sources_.size(); }

    // --- output -------------------------------------------------------

    /** All metrics: owned plus every live source, merged by name. */
    SampleMap snapshot() const;

    /**
     * The owned metrics alone (absorbed sources included, live ones
     * not). A forked cell (core/cells) hands these back to its parent.
     */
    const SampleMap &owned() const { return owned_; }

    /**
     * Merge samples into the owned metrics, exactly as if a source
     * that emitted them had died here.
     */
    void absorb(const SampleMap &samples);

    /**
     * Emit snapshot() as one JSON object keyed by metric name, leaving
     * out summaries with no samples and histograms with no weight:
     * an empty section says nothing about the run.
     */
    void writeJson(JsonWriter &w) const;

    /** Drop all owned metrics (live sources are untouched). */
    void resetOwned();

  private:
    void collectInto(MetricSink &sink) const;

    struct Source
    {
        SourceId id = 0;
        std::string prefix;
        CollectFn fn;
    };

    SampleMap owned_;
    std::vector<Source> sources_;
    SourceId nextSourceId_ = 1;
};

/**
 * RAII registration handle: holds a source registered in a registry
 * and removes (absorbing) it on destruction. Member objects of
 * Kernel/TranslationSim use this so un-registration can't be missed.
 */
class MetricSource
{
  public:
    MetricSource() = default;
    MetricSource(MetricRegistry &reg, std::string prefix,
                 MetricRegistry::CollectFn fn)
        : reg_(&reg), id_(reg.addSource(std::move(prefix), std::move(fn)))
    {}
    ~MetricSource() { release(); }

    MetricSource(const MetricSource &) = delete;
    MetricSource &operator=(const MetricSource &) = delete;

    MetricSource(MetricSource &&other) noexcept
        : reg_(other.reg_), id_(other.id_)
    {
        other.reg_ = nullptr;
    }

    MetricSource &
    operator=(MetricSource &&other) noexcept
    {
        if (this != &other) {
            release();
            reg_ = other.reg_;
            id_ = other.id_;
            other.reg_ = nullptr;
        }
        return *this;
    }

  private:
    void
    release()
    {
        if (reg_)
            reg_->removeSource(id_);
        reg_ = nullptr;
    }

    MetricRegistry *reg_ = nullptr;
    MetricRegistry::SourceId id_ = 0;
};

} // namespace obs
} // namespace contig

#endif // CONTIG_OBS_METRICS_HH
