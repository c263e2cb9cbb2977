#include "core/bench_io.hh"

#include <cstdio>

#include "base/json.hh"
#include "base/logging.hh"
#include "core/config.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/observatory.hh"

namespace contig
{

BenchOutput::BenchOutput(std::string bench, int argc, char **argv)
    : bench_(std::move(bench))
{
    parseArgs(argc, argv);

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
        } else if (arg == "--timeline" && has_next) {
            timelinePath_ = argv[++i];
        } else if (arg == "--attrib") {
            attrib_ = true;
        } else {
            fatal("%s: unknown argument '%s'\n"
                  "usage: %s [--json FILE] [--timeline FILE] [--attrib]",
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
        bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
        ok = std::fputc('\n', f) != EOF && ok;
        ok = std::fclose(f) == 0 && ok;
        if (!ok)
            fatal("cannot write --json output '%s'", jsonPath_.c_str());
        std::printf("json: wrote %s\n", jsonPath_.c_str());
    }

    if (!timelinePath_.empty()) {
        obs::TimelineSink &sink = obs::TimelineSink::global();
        const std::uint64_t records = sink.records();
        const std::uint64_t streams = sink.streams();
        if (!sink.close())
            fatal("cannot write --timeline output '%s'",
                  timelinePath_.c_str());
        std::printf("timeline: wrote %s (%llu snapshots, %llu streams)\n",
                    timelinePath_.c_str(),
                    static_cast<unsigned long long>(records),
                    static_cast<unsigned long long>(streams));
    }

    std::fflush(stdout);
}

} // namespace contig
