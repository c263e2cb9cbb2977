#include "core/bench_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/json.hh"
#include "base/lock_stats.hh"
#include "base/logging.hh"
#include "base/simd.hh"
#include "core/config.hh"
#include "mm/kernel.hh"
#include "obs/attribution.hh"
#include "obs/lock_metrics.hh"
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
    if (threads_ == 1)
        if (const char *env = std::getenv("CONTIG_THREADS"))
            threads_ = static_cast<unsigned>(
                std::max(1l, std::strtol(env, nullptr, 10)));
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
    if (numaShards_ == 0)
        if (const char *env = std::getenv("CONTIG_NUMA_SHARDS"))
            numaShards_ = static_cast<unsigned>(
                std::max(0l, std::strtol(env, nullptr, 10)));
    if (!lockStats_)
        if (const char *env = std::getenv("CONTIG_LOCK_STATS"))
            lockStats_ = env[0] != '\0' && std::strcmp(env, "0") != 0;
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

    if (numaShards_ > 1) {
        // Same before-any-kernel contract as lock stats: every kernel
        // built after this (host, guest, bench scratch instances)
        // shards its physical metadata without touching each
        // construction site.
        KernelConfig::setDefaultNumaShards(numaShards_);
    }

    if (noSimd_) {
        // Before any simulator exists, like the switches below; the
        // CONTIG_SIMD=0 environment form is honoured by simd::
        // enabled() itself.
        simd::setForceScalar(true);
    }

    if (lockStats_) {
        // Flip the switch before any kernel exists so every
        // KernelConfig::normalized() in this run binds its lock sites.
        LockStatsRegistry::setEnabled(true);
        lockSource_ =
            obs::makeLockMetricsSource(obs::MetricRegistry::global());
    }

    if (attrib_) {
        // Same before-any-kernel contract as lock stats: every
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
            obs::parseTraceCategories(env));
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
        } else if (arg == "--threads" && has_next) {
            const long n = std::strtol(argv[++i], nullptr, 10);
            if (n < 1)
                fatal("%s: --threads wants a positive count, got '%s'",
                      bench_.c_str(), argv[i]);
            threads_ = static_cast<unsigned>(n);
        } else if (arg == "--no-simd") {
            noSimd_ = true;
        } else if (arg == "--numa-shards" && has_next) {
            const long n = std::strtol(argv[++i], nullptr, 10);
            if (n < 1)
                fatal("%s: --numa-shards wants a positive count,"
                      " got '%s'",
                      bench_.c_str(), argv[i]);
            numaShards_ = static_cast<unsigned>(n);
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
        } else if (arg == "--lock-stats") {
            lockStats_ = true;
        } else if (arg == "--attrib") {
            attrib_ = true;
        } else if (arg == "--trace-categories" && has_next) {
            const char *list = argv[++i];
            const std::uint32_t mask = obs::parseTraceCategories(list);
            if (mask == 0)
                fatal("%s: unknown trace category in '%s'\n"
                      "valid: all, fault, alloc, migrate, walk, spot,"
                      " daemon, phase, replay (or a hex mask)",
                      bench_.c_str(), list);
            obs::TraceSink::global().setCategoryMask(mask);
        } else {
            fatal("%s: unknown argument '%s'\n"
                  "usage: %s [--json FILE] [--trace FILE]"
                  " [--timeline FILE] [--trace-categories LIST]"
                  " [--threads N] [--no-simd] [--numa-shards N]"
                  " [--trace-in PREFIX] [--trace-out PREFIX]"
                  " [--ckpt-in PREFIX] [--ckpt-out PREFIX]"
                  " [--ckpt-at CHUNK] [--lock-stats] [--attrib]",
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
    const obs::SampleMap snap =
        obs::MetricRegistry::global().snapshot();
    const auto summaryOf =
        [&snap](const std::string &name) -> const Summary * {
        const auto it = snap.find(name);
        if (it == snap.end() ||
            it->second.type != obs::MetricType::Summary)
            return nullptr;
        return &it->second.summary;
    };
    const auto counterOf = [&snap](const std::string &name,
                                   std::uint64_t &out) {
        const auto it = snap.find(name);
        if (it == snap.end())
            return false;
        out = it->second.counter;
        return true;
    };

    // Per-worker fault-driver busy times (ParallelDriver::run()).
    std::vector<double> busy;
    for (unsigned i = 0;; ++i) {
        const Summary *s = summaryOf(
            "parallel.worker" + std::to_string(i) + ".busy_us");
        if (!s)
            break;
        busy.push_back(s->sum());
    }
    const Summary *wall = summaryOf("parallel.run.wall_us");

    // Trace-replay frontend (TraceReplaySource's producer thread).
    struct Frontend
    {
        std::uint64_t chunks = 0;
        std::uint64_t accesses = 0;
        std::uint64_t bytes = 0;
        std::uint64_t decodeUs = 0;
        std::uint64_t stallUs = 0;
        std::uint64_t waitUs = 0;
    };
    Frontend fe;
    const bool have_frontend =
        counterOf("trace.frontend.chunks_decoded", fe.chunks);
    if (have_frontend) {
        counterOf("trace.frontend.accesses_decoded", fe.accesses);
        counterOf("trace.frontend.bytes_decoded", fe.bytes);
        counterOf("trace.frontend.decode_us", fe.decodeUs);
        counterOf("trace.frontend.stall_us", fe.stallUs);
        counterOf("trace.frontend.wait_us", fe.waitUs);
    }

    std::vector<const LockSite *> sites;
    if (lockStats_)
        sites = LockStatsRegistry::global().sites();

    if ((busy.empty() || !wall) && sites.empty() && !have_frontend)
        return;

    w.key("scaling");
    w.beginObject();

    if (!busy.empty() && wall) {
        double total = 0.0;
        for (double b : busy)
            total += b;
        const double wall_us = wall->sum();
        const double speedup = wall_us > 0.0 ? total / wall_us : 0.0;
        const unsigned n = static_cast<unsigned>(busy.size());
        // Karp-Flatt experimentally determined serial fraction; a
        // single worker is serial by definition.
        double serial = 1.0;
        if (n > 1 && speedup > 0.0)
            serial = std::clamp(
                (1.0 / speedup - 1.0 / n) / (1.0 - 1.0 / n), 0.0, 1.0);
        w.key("parallel");
        w.beginObject();
        w.field("workers", n);
        w.field("wall_us", wall_us);
        w.field("busy_us_total", total);
        w.key("worker_busy_us");
        w.beginArray();
        for (double b : busy)
            w.value(b);
        w.endArray();
        w.field("achieved_speedup", speedup);
        w.field("serial_fraction", serial);
        w.endObject();
    }

    if (have_frontend) {
        w.key("trace_frontend");
        w.beginObject();
        w.field("chunks_decoded", fe.chunks);
        w.field("accesses_decoded", fe.accesses);
        w.field("bytes_decoded", fe.bytes);
        w.field("decode_us", fe.decodeUs);
        w.field("producer_stall_us", fe.stallUs);
        w.field("consumer_wait_us", fe.waitUs);
        w.endObject();
    }

    if (!sites.empty()) {
        std::vector<std::pair<const LockSite *, LockSite::Totals>>
            ranked;
        ranked.reserve(sites.size());
        for (const LockSite *s : sites)
            ranked.emplace_back(s, s->totals());
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second.contended != b.second.contended)
                          return a.second.contended > b.second.contended;
                      if (a.second.spinNs != b.second.spinNs)
                          return a.second.spinNs > b.second.spinNs;
                      return a.second.retries > b.second.retries;
                  });
        w.key("locks");
        w.beginObject();
        w.field("sites", static_cast<std::uint64_t>(sites.size()));
        w.key("top_contended");
        w.beginArray();
        const std::size_t top = std::min<std::size_t>(5, ranked.size());
        for (std::size_t i = 0; i < top; ++i) {
            const LockSite::Totals &t = ranked[i].second;
            w.beginObject();
            w.field("site", ranked[i].first->name());
            w.field("acquisitions", t.acquisitions);
            w.field("contended", t.contended);
            w.field("retries", t.retries);
            w.field("spin_us", t.spinNs / 1000);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

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
        w.field("lock_stats", lockStats_);
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

        // Derived concurrency report: present whenever the run
        // recorded worker or trace-frontend accounting, or lock stats
        // were on.
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
