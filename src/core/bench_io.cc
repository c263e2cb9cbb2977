#include "core/bench_io.hh"

#include <algorithm>
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
    if (traceIn_.empty())
        if (const char *env = std::getenv("CONTIG_CTRACE_IN"))
            traceIn_ = env;
    if (traceOut_.empty())
        if (const char *env = std::getenv("CONTIG_CTRACE_OUT"))
            traceOut_ = env;
    if (ckptIn_.empty())
        if (const char *env = std::getenv("CONTIG_CKPT_IN"))
            ckptIn_ = env;
    if (ckptOut_.empty())
        if (const char *env = std::getenv("CONTIG_CKPT_OUT"))
            ckptOut_ = env;
    if (ckptAtChunk_ == 0)
        if (const char *env = std::getenv("CONTIG_CKPT_AT"))
            ckptAtChunk_ = static_cast<std::uint64_t>(
                std::max(0l, std::strtol(env, nullptr, 10)));
    if (!attrib_)
        if (const char *env = std::getenv("CONTIG_ATTRIB"))
            attrib_ = env[0] != '\0' && std::strcmp(env, "0") != 0;

    if (!traceIn_.empty() && !traceOut_.empty())
        fatal("%s: --trace-in and --trace-out are mutually exclusive",
              bench_.c_str());
    if (!ckptIn_.empty() && traceIn_.empty())
        fatal("%s: --ckpt-in requires --trace-in (a checkpoint resumes"
              " a trace replay)",
              bench_.c_str());
    if (!ckptOut_.empty() && traceIn_.empty())
        fatal("%s: --ckpt-out requires --trace-in (checkpoints are"
              " taken at trace chunk boundaries)",
              bench_.c_str());
    if (!ckptOut_.empty() && ckptAtChunk_ == 0)
        fatal("%s: --ckpt-out requires --ckpt-at CHUNK",
              bench_.c_str());
    if (ckptAtChunk_ != 0 && ckptOut_.empty())
        fatal("%s: --ckpt-at requires --ckpt-out PREFIX",
              bench_.c_str());

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
        } else if (arg == "--trace-in" && has_next) {
            traceIn_ = argv[++i];
        } else if (arg == "--trace-out" && has_next) {
            traceOut_ = argv[++i];
        } else if (arg == "--ckpt-in" && has_next) {
            ckptIn_ = argv[++i];
        } else if (arg == "--ckpt-out" && has_next) {
            ckptOut_ = argv[++i];
        } else if (arg == "--ckpt-at" && has_next) {
            const long n = std::strtol(argv[++i], nullptr, 10);
            if (n < 1)
                fatal("%s: --ckpt-at wants a positive chunk index,"
                      " got '%s'",
                      bench_.c_str(), argv[i]);
            ckptAtChunk_ = static_cast<std::uint64_t>(n);
        } else if (arg == "--attrib") {
            attrib_ = true;
        } else if (arg == "--trace-categories" && has_next) {
            obs::TraceSink::global().setCategoryMask(
                traceMaskOrDie(bench_, "--trace-categories", argv[++i]));
        } else {
            fatal("%s: unknown argument '%s'\n"
                  "usage: %s [--json FILE] [--trace FILE]"
                  " [--timeline FILE] [--trace-categories LIST]"
                  " [--no-simd]"
                  " [--trace-in PREFIX] [--trace-out PREFIX]"
                  " [--ckpt-in PREFIX] [--ckpt-out PREFIX]"
                  " [--ckpt-at CHUNK] [--attrib]",
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
BenchOutput::writeScaling(JsonWriter &w) const
{
    // Trace-replay frontend (TraceReplaySource's decode thread).
    const obs::SampleMap snap = obs::MetricRegistry::global().snapshot();
    const auto counterOf = [&snap](const std::string &name) {
        const auto it = snap.find("trace.frontend." + name);
        return it == snap.end() ? std::uint64_t{0} : it->second.counter;
    };
    if (!snap.count("trace.frontend.chunks_decoded"))
        return;

    w.key("scaling");
    w.beginObject();
    w.key("trace_frontend");
    w.beginObject();
    w.field("chunks_decoded", counterOf("chunks_decoded"));
    w.field("accesses_decoded", counterOf("accesses_decoded"));
    w.field("bytes_decoded", counterOf("bytes_decoded"));
    w.field("decode_us", counterOf("decode_us"));
    w.field("producer_stall_us", counterOf("stall_us"));
    w.field("consumer_wait_us", counterOf("wait_us"));
    w.endObject();
    w.endObject();
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

        // Trace-frontend report: present whenever the run replayed a
        // .ctrace file through the decode thread.
        writeScaling(w);

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
