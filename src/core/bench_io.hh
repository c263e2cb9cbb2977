/**
 * @file
 * Machine-readable bench output. Every bench main wraps its run in a
 * BenchOutput: plain-text tables keep printing as before, and when
 * `--json <file>` (or CONTIG_JSON_OUT) is given the same tables are
 * also written as one JSON document of schema
 *
 *   { "bench": <name>, "config": {...}, "rows": [...], "metrics": {...} }
 *
 * where "rows" flattens every added Report (one object per table row,
 * tagged with its caption) and "metrics" is the global MetricRegistry
 * snapshot. The document carries "schema_version" (currently 4) and
 * a config.run object with the RunInfo reproducibility record (RNG
 * seeds, full KernelConfig knob sets). `--trace <file>` (or
 * CONTIG_TRACE_OUT) additionally enables event tracing and exports
 * the ring buffer on write() — Chrome trace_event JSON by default,
 * JSONL when the path ends in ".jsonl". `--trace-categories
 * fault,spot,...` (or CONTIG_TRACE_CATEGORIES) narrows what is
 * recorded. `--timeline <file>` (or CONTIG_TIMELINE_OUT) opens the
 * observatory TimelineSink: every StateSampler the run creates
 * streams delta-encoded JSONL snapshots there (see obs/observatory).
 *
 * `--lock-stats` (or CONTIG_LOCK_STATS=1) switches the lock-site
 * contention accounting on before any kernel exists: every
 * instrumented lock exports lock.<site>.* metrics, and the JSON
 * document gains a derived "scaling" section (per-worker busy time,
 * achieved speedup, serial fraction, top contended lock sites). The
 * section is also emitted without --lock-stats whenever a run
 * recorded parallel.* or trace-frontend accounting — it then simply
 * omits the lock table.
 *
 * `--attrib` (or CONTIG_ATTRIB=1) switches the per-event cost
 * attribution on the same way: translation and fault kernels then
 * classify every event by outcome and contiguity class (see
 * obs/attribution), and the JSON document gains an "attribution"
 * section with per-class cycle histograms and sampled exemplars.
 * Off (the default) the hot paths carry a dead null-pointer branch
 * and the document is byte-identical to a run without the flag.
 */

#ifndef CONTIG_CORE_BENCH_IO_HH
#define CONTIG_CORE_BENCH_IO_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hh"
#include "obs/metrics.hh"

namespace contig
{

class BenchOutput
{
  public:
    /**
     * @param bench short bench name ("fig07_native_contiguity")
     * @param argc/argv the main() arguments; recognized flags are
     *        consumed, unknown ones fatal() with a usage message.
     */
    BenchOutput(std::string bench, int argc = 0, char **argv = nullptr);

    /** Backstop: writes pending output if write() was not called. */
    ~BenchOutput();

    BenchOutput(const BenchOutput &) = delete;
    BenchOutput &operator=(const BenchOutput &) = delete;

    /** Record a run parameter for the "config" block. */
    void note(std::string_view key, std::string_view value);
    void note(std::string_view key, double value);
    void note(std::string_view key, std::uint64_t value);

    /** Add a finished table to the "rows" block (also for print()). */
    void add(const Report &rep);

    bool jsonEnabled() const { return !jsonPath_.empty(); }
    bool traceEnabled() const { return !tracePath_.empty(); }
    bool timelineEnabled() const { return !timelinePath_.empty(); }

    /**
     * Worker threads requested via `--threads N` (or CONTIG_THREADS);
     * 1 when absent. Benches that support concurrent runs pass this
     * to KernelConfig::threads / ParallelDriverConfig::threads;
     * single-threaded benches simply ignore it.
     */
    unsigned threads() const { return threads_; }

    /**
     * True when `--no-simd` (or CONTIG_SIMD=0) forced the probe
     * kernels scalar. Purely a wall-clock knob: simulated results are
     * identical either way. The switch is applied process-wide
     * (simd::setForceScalar) before any simulator exists.
     */
    bool simdDisabled() const { return noSimd_; }

    /**
     * Physical-metadata shards via `--numa-shards N` (or
     * CONTIG_NUMA_SHARDS); 0 when absent. Benches that build kernels
     * pass this to KernelConfig::numaShards; 0/1 keeps the legacy
     * unsharded metadata.
     */
    unsigned numaShards() const { return numaShards_; }

    /**
     * Trace-frontend options (`--trace-in/--trace-out/--ckpt-in/`
     * `--ckpt-out` file prefixes and `--ckpt-at` chunk index, or the
     * CONTIG_CTRACE_IN / CONTIG_CTRACE_OUT / CONTIG_CKPT_IN /
     * CONTIG_CKPT_OUT / CONTIG_CKPT_AT environment fallbacks). Cross
     * validation happens at parse time: --ckpt-in/--ckpt-out need
     * --trace-in, --ckpt-out and --ckpt-at need each other, and
     * --trace-in/--trace-out are mutually exclusive. Translation
     * benches forward these into XlatReplayOpts.
     */
    const std::string &traceIn() const { return traceIn_; }
    const std::string &traceOut() const { return traceOut_; }
    const std::string &ckptIn() const { return ckptIn_; }
    const std::string &ckptOut() const { return ckptOut_; }
    std::uint64_t ckptAtChunk() const { return ckptAtChunk_; }

    /**
     * True when `--lock-stats` (or CONTIG_LOCK_STATS=1) switched the
     * contention accounting on. Benches never need to check this —
     * KernelConfig::normalized() picks the mode up from the
     * LockStatsRegistry — but tools displaying the run might.
     */
    bool lockStatsEnabled() const { return lockStats_; }

    /**
     * True when `--attrib` (or CONTIG_ATTRIB=1) switched the
     * cost-attribution accounting on. Kernels pick the mode up from
     * AttribRegistry::enabled(); benches only need this to decide
     * whether to build a ContigClassIndex for classification.
     */
    bool attribEnabled() const { return attrib_; }

    /** The bench JSON document schema ("schema_version"). */
    static constexpr int kSchemaVersion = 4;

    /** Write the JSON document and/or trace export, if configured. */
    void write();

  private:
    struct Note
    {
        std::string key;
        std::string str;
        double num = 0.0;
        bool isNum = false;
    };

    void parseArgs(int argc, char **argv);
    void writeScaling(JsonWriter &w) const;

    std::string bench_;
    std::string jsonPath_;
    std::string tracePath_;
    std::string timelinePath_;
    unsigned threads_ = 1;
    bool noSimd_ = false;
    unsigned numaShards_ = 0;
    std::string traceIn_;
    std::string traceOut_;
    std::string ckptIn_;
    std::string ckptOut_;
    std::uint64_t ckptAtChunk_ = 0;
    bool lockStats_ = false;
    bool attrib_ = false;
    /** Live "lock." source over the LockStatsRegistry, bound for the
     *  run's lifetime when lock stats are on. */
    obs::MetricSource lockSource_;
    std::vector<Note> notes_;
    std::vector<Report> reports_;
    bool written_ = false;
};

} // namespace contig

#endif // CONTIG_CORE_BENCH_IO_HH
