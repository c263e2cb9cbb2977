/**
 * @file
 * Machine-readable bench output. Every bench main wraps its run in a
 * BenchOutput: plain-text tables keep printing as before, and when
 * `--json <file>` is given the same tables are
 * also written as one JSON document of schema
 *
 *   { "bench": <name>, "config": {...}, "rows": [...], "metrics": {...} }
 *
 * where "rows" flattens every added Report (one object per table row,
 * tagged with its caption) and "metrics" is the global MetricRegistry
 * snapshot, without its empty summaries and histograms: counters are
 * bare integers, summaries (point values too, one sample each) and
 * histograms are objects. The document carries "schema_version"
 * (currently 6) and a config.run object with the RunInfo
 * reproducibility record (RNG seeds, full KernelConfig knob sets).
 * `--timeline <file>` opens the observatory TimelineSink: every
 * StateSampler the run creates streams delta-encoded JSONL snapshots
 * there (see obs/observatory).
 *
 * `--attrib` switches the per-event cost
 * attribution on the same way: translation and fault kernels then
 * classify every event by outcome and contiguity class (see
 * obs/attribution), and the JSON document gains an "attribution"
 * section with per-class cycle histograms and sampled exemplars.
 * Off (the default) the hot paths carry a dead null-pointer branch
 * and the document is byte-identical to a run without the flag.
 *
 * Those three flags are the whole command line: any other argument
 * exits 1 with a usage line.
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

    /** The bench JSON document schema ("schema_version"). */
    static constexpr int kSchemaVersion = 6;

    /** Write the JSON document and close the timeline, if configured. */
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
    std::string timelinePath_;
    bool attrib_ = false;
    std::vector<Note> notes_;
    std::vector<Report> reports_;
    bool written_ = false;
};

} // namespace contig

#endif // CONTIG_CORE_BENCH_IO_HH
