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
 * snapshot. The document carries "schema_version" (currently 5) and
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
     * True when `--no-simd` (or CONTIG_SIMD=0) forced the probe
     * kernels scalar. Purely a wall-clock knob: simulated results are
     * identical either way. The switch is applied process-wide
     * (simd::setForceScalar) before any simulator exists.
     */
    bool simdDisabled() const { return noSimd_; }

    /**
     * True when `--attrib` (or CONTIG_ATTRIB=1) switched the
     * cost-attribution accounting on. Kernels pick the mode up from
     * AttribRegistry::enabled(); benches only need this to decide
     * whether to build a ContigClassIndex for classification.
     */
    bool attribEnabled() const { return attrib_; }

    /** The bench JSON document schema ("schema_version"). */
    static constexpr int kSchemaVersion = 5;

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

    std::string bench_;
    std::string jsonPath_;
    std::string tracePath_;
    std::string timelinePath_;
    bool noSimd_ = false;
    bool attrib_ = false;
    std::vector<Note> notes_;
    std::vector<Report> reports_;
    bool written_ = false;
};

} // namespace contig

#endif // CONTIG_CORE_BENCH_IO_HH
