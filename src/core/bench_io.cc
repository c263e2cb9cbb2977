#include "core/bench_io.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/simd.hh"
#include "core/config.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/observatory.hh"
#include "obs/trace.hh"

namespace contig
{

namespace
{

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

/** parseTraceCategories(), fatal on an unknown or empty mask. */
std::uint32_t
traceMaskOrDie(const std::string &bench, const char *source,
               const char *list)
{
    const std::uint32_t mask = obs::parseTraceCategories(list);
    if (mask == 0)
        fatal("%s: unknown trace category in %s '%s'\n"
              "valid: all, fault, alloc, promote, migrate, tlb, spot,"
              " walk, daemon, phase, replay (or a hex mask)",
              bench.c_str(), source, list);
    return mask;
}

} // namespace

BenchOutput::BenchOutput(std::string bench, int argc, char **argv)
    : bench_(std::move(bench))
{
    parseArgs(argc, argv);

    if (jsonPath_.empty())
        if (const char *env = std::getenv("CONTIG_JSON_OUT"))
            jsonPath_ = env;
    if (tracePath_.empty())
        if (const char *env = std::getenv("CONTIG_TRACE_OUT"))
            tracePath_ = env;
    if (timelinePath_.empty())
        if (const char *env = std::getenv("CONTIG_TIMELINE_OUT"))
            timelinePath_ = env;
    if (!attrib_)
        if (const char *env = std::getenv("CONTIG_ATTRIB"))
            attrib_ = env[0] != '\0' && std::strcmp(env, "0") != 0;

    if (noSimd_) {
        // Before any simulator exists, like the switch below; the
        // CONTIG_SIMD=0 environment form is honoured by simd::
        // enabled() itself.
        simd::setForceScalar(true);
    }

    if (attrib_) {
        // Flip the switch before any simulator exists: every
        // TranslationSim / FaultEngine built after this carries an
        // attribution table.
        obs::AttribRegistry::setEnabled(true);
        obs::RunInfo::global().note("attrib.enabled", true);
    }

    if (!timelinePath_.empty() &&
        !obs::TimelineSink::global().open(timelinePath_))
        fatal("cannot open --timeline output '%s'",
              timelinePath_.c_str());

    if (!tracePath_.empty()) {
        obs::TraceSink &sink = obs::TraceSink::global();
        if (sink.categoryMask() == 0)
            sink.setCategoryMask(obs::kCatAll);
    }
    if (const char *env = std::getenv("CONTIG_TRACE_CATEGORIES"))
        obs::TraceSink::global().setCategoryMask(
            traceMaskOrDie(bench_, "CONTIG_TRACE_CATEGORIES", env));
}

BenchOutput::~BenchOutput()
{
    if (!written_)
        write();
}

void
BenchOutput::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--json" && has_next) {
            jsonPath_ = argv[++i];
        } else if (arg == "--trace" && has_next) {
            tracePath_ = argv[++i];
        } else if (arg == "--timeline" && has_next) {
            timelinePath_ = argv[++i];
        } else if (arg == "--no-simd") {
            noSimd_ = true;
        } else if (arg == "--attrib") {
            attrib_ = true;
        } else if (arg == "--trace-categories" && has_next) {
            obs::TraceSink::global().setCategoryMask(
                traceMaskOrDie(bench_, "--trace-categories", argv[++i]));
        } else {
            fatal("%s: unknown argument '%s'\n"
                  "usage: %s [--json FILE] [--trace FILE]"
                  " [--timeline FILE] [--trace-categories LIST]"
                  " [--no-simd] [--attrib]",
                  bench_.c_str(), argv[i], bench_.c_str());
        }
    }
}

void
BenchOutput::note(std::string_view key, std::string_view value)
{
    notes_.push_back({std::string(key), std::string(value), 0.0, false});
}

void
BenchOutput::note(std::string_view key, double value)
{
    notes_.push_back({std::string(key), {}, value, true});
}

void
BenchOutput::note(std::string_view key, std::uint64_t value)
{
    note(key, static_cast<double>(value));
}

void
BenchOutput::add(const Report &rep)
{
    reports_.push_back(rep);
}

void
BenchOutput::write()
{
    written_ = true;

    if (!jsonPath_.empty()) {
        JsonWriter w;
        w.beginObject();
        w.field("schema_version", kSchemaVersion);
        w.field("bench", bench_);

        w.key("config");
        w.beginObject();
        w.field("host_nodes", ScaledDefaults::kHostNodes);
        w.field("host_node_bytes", ScaledDefaults::kHostNodeBytes);
        w.field("guest_nodes", ScaledDefaults::kGuestNodes);
        w.field("guest_node_bytes", ScaledDefaults::kGuestNodeBytes);
        w.field("attrib", attrib_);
        for (const Note &n : notes_) {
            w.key(n.key);
            if (n.isNum)
                w.value(n.num);
            else
                w.value(n.str);
        }
        // The RunInfo reproducibility record: RNG seeds and the full
        // knob set of every kernel the run instantiated.
        w.key("run");
        obs::RunInfo::global().writeJson(w);
        w.endObject();

        w.key("rows");
        w.beginArray();
        for (const Report &rep : reports_)
            rep.toJson(w);
        w.endArray();

        w.key("metrics");
        obs::MetricRegistry::global().writeJson(w);

        // Cost attribution ("where do the cycles go"): present only
        // when --attrib ran at least one instrumented kernel.
        obs::AttribRegistry::global().writeSection(w);

        w.endObject();

        std::FILE *f = std::fopen(jsonPath_.c_str(), "w");
        if (!f)
            fatal("cannot open --json output '%s'", jsonPath_.c_str());
        const std::string &doc = w.str();
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("json: wrote %s\n", jsonPath_.c_str());
    }

    if (!tracePath_.empty()) {
        obs::TraceSink &sink = obs::TraceSink::global();
        const bool ok = endsWith(tracePath_, ".jsonl")
                            ? sink.writeJsonl(tracePath_)
                            : sink.writeChromeTrace(tracePath_);
        if (!ok)
            fatal("cannot open --trace output '%s'", tracePath_.c_str());
        std::printf("trace: wrote %s (%llu events, %llu dropped)\n",
                    tracePath_.c_str(),
                    static_cast<unsigned long long>(sink.size()),
                    static_cast<unsigned long long>(sink.dropped()));
    }

    if (!timelinePath_.empty()) {
        obs::TimelineSink &sink = obs::TimelineSink::global();
        const std::uint64_t records = sink.records();
        const std::uint64_t streams = sink.streams();
        sink.close();
        std::printf("timeline: wrote %s (%llu snapshots, %llu streams)\n",
                    timelinePath_.c_str(),
                    static_cast<unsigned long long>(records),
                    static_cast<unsigned long long>(streams));
    }

    std::fflush(stdout);
}

} // namespace contig
