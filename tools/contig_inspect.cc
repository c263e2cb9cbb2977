/**
 * @file
 * contig_inspect: the observatory's offline consumer. Reads the
 * delta-encoded JSONL timelines `--timeline` produces and the bench
 * `--json` documents, and answers the questions the live run cannot:
 *
 *   series <timeline>             fragmentation/contiguity time series
 *                                 per stream (free pages, FMFI,
 *                                 clusters, largest cluster, coverage)
 *   top <timeline> [--top N]      the top contiguity losers between
 *                                 the first and last capture: VMAs by
 *                                 max-run shrink, zones by FMFI growth
 *   diff <timeline> A B           key-level diff between captures with
 *                                 seq A and B (--stream selects one)
 *   check-baseline CUR BASE       compare a bench --json document
 *                                 against a committed baseline with
 *                                 per-metric tolerances; exits 1 on
 *                                 regression (wall-clock metrics are
 *                                 skipped — they are not deterministic)
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/json.hh"
#include "obs/snapshot.hh"

using namespace contig;

namespace
{

int gExitCode = 0;

void
complain(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::fputs("contig_inspect: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
    gExitCode = 1;
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "contig_inspect: %s\n", msg.c_str());
    std::exit(2);
}

// --- timeline loading -----------------------------------------------------

/** One capture, reconstructed (deltas applied). */
struct Capture
{
    std::uint64_t seq = 0;
    std::uint64_t tick = 0;
    obs::FlatSnap state;
};

struct Stream
{
    std::uint64_t id = 0;
    std::string domain;
    std::vector<Capture> captures;
};

std::vector<Stream>
loadTimeline(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot open timeline '" + path + "'");

    std::map<std::uint64_t, Stream> streams;
    std::string line, err;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        auto rec = obs::decodeTimelineRecord(line, &err);
        if (!rec)
            die(path + ":" + std::to_string(lineno) + ": " + err);
        Stream &s = streams[rec->stream];
        s.id = rec->stream;
        s.domain = rec->domain;
        const obs::FlatSnap prev =
            s.captures.empty() ? obs::FlatSnap{} : s.captures.back().state;
        s.captures.push_back(
            Capture{rec->seq, rec->tick, obs::applyRecord(prev, *rec)});
    }

    std::vector<Stream> out;
    out.reserve(streams.size());
    for (auto &[id, s] : streams)
        out.push_back(std::move(s));
    return out;
}

double
flatGet(const obs::FlatSnap &s, const std::string &key, double fallback)
{
    auto it = s.find(key);
    return it == s.end() ? fallback : it->second;
}

/** Sum of every zone<N>.<leaf> value present in the snapshot. */
double
zoneSum(const obs::FlatSnap &s, const std::string &leaf)
{
    double acc = 0;
    for (int n = 0;; ++n) {
        auto it = s.find("zone" + std::to_string(n) + "." + leaf);
        if (it == s.end())
            return acc;
        acc += it->second;
    }
}

/** Free-page-weighted mean FMFI across zones. */
double
meanFmfi(const obs::FlatSnap &s)
{
    double pages = 0, acc = 0;
    for (int n = 0;; ++n) {
        const std::string z = "zone" + std::to_string(n) + ".";
        auto fp = s.find(z + "free_pages");
        if (fp == s.end())
            break;
        pages += fp->second;
        acc += fp->second * flatGet(s, z + "fmfi", 0);
    }
    return pages > 0 ? acc / pages : 0;
}

double
maxLargest(const obs::FlatSnap &s)
{
    double best = 0;
    for (int n = 0;; ++n) {
        auto it = s.find("zone" + std::to_string(n) + ".largest_pages");
        if (it == s.end())
            return best;
        best = std::max(best, it->second);
    }
}

// --- series ---------------------------------------------------------------

int
cmdSeries(const std::vector<Stream> &streams, long only_stream)
{
    for (const Stream &s : streams) {
        if (only_stream >= 0 &&
            s.id != static_cast<std::uint64_t>(only_stream))
            continue;
        std::printf("stream %" PRIu64 "  [%s]  (%zu captures)\n", s.id,
                    s.domain.c_str(), s.captures.size());
        std::printf("%8s %10s %12s %8s %9s %12s %8s %8s %8s\n", "seq",
                    "tick", "free_pages", "fmfi", "clusters",
                    "largest_pgs", "cov32", "cov128", "maps99");
        for (const Capture &c : s.captures) {
            std::printf(
                "%8" PRIu64 " %10" PRIu64 " %12.0f %8.4f %9.0f %12.0f",
                c.seq, c.tick, zoneSum(c.state, "free_pages"),
                meanFmfi(c.state), zoneSum(c.state, "clusters"),
                maxLargest(c.state));
            auto cov = c.state.find("cov.cov32");
            if (cov != c.state.end())
                std::printf(" %8.4f %8.4f %8.0f",
                            cov->second,
                            flatGet(c.state, "cov.cov128", 0),
                            flatGet(c.state, "cov.maps99", 0));
            std::printf("\n");
        }
        std::printf("\n");
    }
    return 0;
}

// --- top (contiguity losers) ----------------------------------------------

struct Loser
{
    std::string what;
    double before = 0;
    double after = 0;
    double loss = 0;
};

int
cmdTop(const std::vector<Stream> &streams, int top_n)
{
    std::vector<Loser> vmas, zones;
    for (const Stream &s : streams) {
        if (s.captures.size() < 2)
            continue;
        const obs::FlatSnap &first = s.captures.front().state;
        const obs::FlatSnap &last = s.captures.back().state;
        // VMAs: shrink of the longest offset run, first -> last.
        for (const auto &[key, v0] : first) {
            const bool vma = key.rfind("vma", 0) == 0 &&
                             key.size() > 8 &&
                             key.compare(key.size() - 8, 8, ".max_run") == 0;
            if (vma) {
                const double v1 = flatGet(last, key, 0);
                if (v1 < v0)
                    vmas.push_back(Loser{"[" + s.domain + "] " + key, v0,
                                         v1, v0 - v1});
            }
            // Zones: FMFI growth, first -> last.
            const bool fmfi = key.rfind("zone", 0) == 0 &&
                              key.size() > 5 &&
                              key.compare(key.size() - 5, 5, ".fmfi") == 0;
            if (fmfi) {
                const double v1 = flatGet(last, key, 0);
                if (v1 > v0)
                    zones.push_back(Loser{"[" + s.domain + "] " + key, v0,
                                          v1, v1 - v0});
            }
        }
    }
    auto by_loss = [](const Loser &a, const Loser &b) {
        return a.loss > b.loss;
    };
    std::sort(vmas.begin(), vmas.end(), by_loss);
    std::sort(zones.begin(), zones.end(), by_loss);

    std::printf("top %d contiguity-losing VMAs (max offset run, pages):\n",
                top_n);
    for (int i = 0; i < top_n && i < static_cast<int>(vmas.size()); ++i)
        std::printf("  %-48s %10.0f -> %10.0f  (-%.0f)\n",
                    vmas[i].what.c_str(), vmas[i].before, vmas[i].after,
                    vmas[i].loss);
    if (vmas.empty())
        std::printf("  (none lost contiguity)\n");

    std::printf("top %d fragmenting zones (FMFI at the huge order):\n",
                top_n);
    for (int i = 0; i < top_n && i < static_cast<int>(zones.size()); ++i)
        std::printf("  %-48s %10.4f -> %10.4f  (+%.4f)\n",
                    zones[i].what.c_str(), zones[i].before, zones[i].after,
                    zones[i].loss);
    if (zones.empty())
        std::printf("  (no zone's FMFI grew)\n");
    return 0;
}

// --- diff -----------------------------------------------------------------

int
cmdDiff(const std::vector<Stream> &streams, long only_stream,
        std::uint64_t seq_a, std::uint64_t seq_b)
{
    const Capture *a = nullptr, *b = nullptr;
    const Stream *home = nullptr;
    for (const Stream &s : streams) {
        if (only_stream >= 0 &&
            s.id != static_cast<std::uint64_t>(only_stream))
            continue;
        for (const Capture &c : s.captures) {
            if (c.seq == seq_a && !a) {
                a = &c;
                home = &s;
            }
            if (c.seq == seq_b && !b && (!home || home == &s))
                b = &c;
        }
        if (a && b)
            break;
    }
    if (!a || !b)
        die("captures with seq " + std::to_string(seq_a) + " and " +
            std::to_string(seq_b) + " not found in one stream "
            "(use --stream to pick one)");

    std::printf("diff [%s] seq %" PRIu64 " (tick %" PRIu64
                ") -> seq %" PRIu64 " (tick %" PRIu64 ")\n",
                home->domain.c_str(), a->seq, a->tick, b->seq, b->tick);
    const obs::FlatDelta d = obs::diffFlat(a->state, b->state);
    for (const auto &[key, v1] : d.set) {
        auto it = a->state.find(key);
        if (it == a->state.end())
            std::printf("  + %-44s %14.6g\n", key.c_str(), v1);
        else
            std::printf("  ~ %-44s %14.6g -> %-14.6g (%+.6g)\n",
                        key.c_str(), it->second, v1, v1 - it->second);
    }
    for (const std::string &key : d.del)
        std::printf("  - %-44s (was %.6g)\n", key.c_str(),
                    flatGet(a->state, key, 0));
    if (d.set.empty() && d.del.empty())
        std::printf("  (identical)\n");
    return 0;
}

// --- check-baseline -------------------------------------------------------

JsonValue
loadJsonDoc(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot open '" + path + "'");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string err;
    auto doc = JsonValue::parse(text, &err);
    if (!doc)
        die(path + ": " + err);
    return std::move(*doc);
}

bool
numbersClose(double cur, double base, double rel_tol)
{
    if (cur == base)
        return true;
    const double mag = std::max(std::fabs(cur), std::fabs(base));
    return std::fabs(cur - base) <= rel_tol * mag + 1e-12;
}

/** Host wall-clock values (the phase timers' `*.wall_us`, row columns
 *  such as `wall us/op`) vary run to run; never gate on a key whose
 *  last path segment contains `wall`. */
bool
ignoredMetric(const std::string &path)
{
    const std::size_t dot = path.rfind('.');
    const std::string_view last =
        std::string_view(path).substr(dot == std::string::npos ? 0
                                                               : dot + 1);
    return last.find("wall") != std::string_view::npos;
}

void
compareJson(const std::string &path, const JsonValue &cur,
            const JsonValue &base, double rel_tol)
{
    if (ignoredMetric(path))
        return;
    if (base.isNumber()) {
        if (!cur.isNumber())
            complain("%s: number in baseline, %s now", path.c_str(),
                     cur.isString() ? "string" : "non-number");
        else if (!numbersClose(cur.asNumber(), base.asNumber(), rel_tol))
            complain("%s: %.9g deviates from baseline %.9g "
                     "(rel tol %.1g)",
                     path.c_str(), cur.asNumber(), base.asNumber(),
                     rel_tol);
    } else if (base.isString()) {
        if (!cur.isString() || cur.asString() != base.asString())
            complain("%s: '%s' != baseline '%s'", path.c_str(),
                     cur.isString() ? cur.asString().c_str() : "?",
                     base.asString().c_str());
    } else if (base.isArray()) {
        if (!cur.isArray() ||
            cur.array().size() != base.array().size()) {
            complain("%s: array shape changed (%zu vs baseline %zu)",
                     path.c_str(),
                     cur.isArray() ? cur.array().size() : 0,
                     base.array().size());
            return;
        }
        for (std::size_t i = 0; i < base.array().size(); ++i)
            compareJson(path + "[" + std::to_string(i) + "]",
                        cur.array()[i], base.array()[i], rel_tol);
    } else if (base.isObject()) {
        if (!cur.isObject()) {
            complain("%s: object in baseline, not in current",
                     path.c_str());
            return;
        }
        for (const auto &[key, bval] : base.members()) {
            const JsonValue *cval = cur.find(key);
            if (!cval) {
                if (!ignoredMetric(path + "." + key))
                    complain("%s.%s: present in baseline, missing now",
                             path.c_str(), key.c_str());
                continue;
            }
            compareJson(path + "." + key, *cval, bval, rel_tol);
        }
    } else if (base.isBool()) {
        if (!cur.isBool() || cur.asBool() != base.asBool())
            complain("%s: bool changed vs baseline", path.c_str());
    }
}

int
cmdCheckBaseline(const std::string &cur_path, const std::string &base_path,
                 double row_tol, double metric_tol)
{
    const JsonValue cur = loadJsonDoc(cur_path);
    const JsonValue base = loadJsonDoc(base_path);

    const JsonValue *cb = cur.find("bench"), *bb = base.find("bench");
    if (!cb || !bb || !cb->isString() || !bb->isString() ||
        cb->asString() != bb->asString())
        complain("bench name mismatch ('%s' vs baseline '%s')",
                 cb && cb->isString() ? cb->asString().c_str() : "?",
                 bb && bb->isString() ? bb->asString().c_str() : "?");

    if (cur.numberOr("schema_version", 0) <
        base.numberOr("schema_version", 0))
        complain("schema_version went backwards (%g vs baseline %g)",
                 cur.numberOr("schema_version", 0),
                 base.numberOr("schema_version", 0));

    // Rows are the published figures — tightest tolerance.
    const JsonValue *crows = cur.find("rows"), *brows = base.find("rows");
    if (!crows || !brows || !crows->isArray() || !brows->isArray()) {
        complain("missing 'rows' array");
    } else if (crows->array().size() != brows->array().size()) {
        complain("row count changed: %zu vs baseline %zu",
                 crows->array().size(), brows->array().size());
    } else {
        for (std::size_t i = 0; i < brows->array().size(); ++i)
            compareJson("rows[" + std::to_string(i) + "]",
                        crows->array()[i], brows->array()[i], row_tol);
    }

    // Metrics may legitimately gain keys; losing or moving one is the
    // regression. Wall-clock timers are skipped inside compareJson.
    const JsonValue *cm = cur.find("metrics"), *bm = base.find("metrics");
    if (!cm || !bm || !cm->isObject() || !bm->isObject())
        complain("missing 'metrics' object");
    else
        compareJson("metrics", *cm, *bm, metric_tol);

    if (gExitCode == 0)
        std::printf("check-baseline: OK: %s matches %s\n",
                    cur_path.c_str(), base_path.c_str());
    else
        std::fprintf(stderr,
                     "check-baseline: FAIL: %s regressed vs %s\n",
                     cur_path.c_str(), base_path.c_str());
    return gExitCode;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: contig_inspect <command> [options]\n"
        "  series <timeline.jsonl> [--stream N]\n"
        "  top <timeline.jsonl> [--top N] \n"
        "  diff <timeline.jsonl> <seqA> <seqB> [--stream N]\n"
        "  check-baseline <current.json> <baseline.json>\n"
        "      [--row-tol R (1e-6)] [--metric-tol M (1e-4)]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];

    std::vector<std::string> pos;
    long stream = -1;
    int top_n = 10;
    double row_tol = 1e-6, metric_tol = 1e-4;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--stream" && has_next)
            stream = std::strtol(argv[++i], nullptr, 10);
        else if (arg == "--top" && has_next)
            top_n = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
        else if (arg == "--row-tol" && has_next)
            row_tol = std::strtod(argv[++i], nullptr);
        else if (arg == "--metric-tol" && has_next)
            metric_tol = std::strtod(argv[++i], nullptr);
        else if (!arg.empty() && arg[0] == '-')
            usage();
        else
            pos.push_back(arg);
    }

    if (cmd == "series" && pos.size() == 1)
        return cmdSeries(loadTimeline(pos[0]), stream);
    if (cmd == "top" && pos.size() == 1)
        return cmdTop(loadTimeline(pos[0]), top_n);
    if (cmd == "diff" && pos.size() == 3)
        return cmdDiff(loadTimeline(pos[0]), stream,
                       std::strtoull(pos[1].c_str(), nullptr, 10),
                       std::strtoull(pos[2].c_str(), nullptr, 10));
    if (cmd == "check-baseline" && pos.size() == 2)
        return cmdCheckBaseline(pos[0], pos[1], row_tol, metric_tol);
    usage();
}
