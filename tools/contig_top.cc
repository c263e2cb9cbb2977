/**
 * @file
 * contig_top: the observatory's live consumer. Tails the JSONL
 * timeline a running bench streams via `--timeline FILE` and renders
 * a refreshing top-style view of the run: per-zone fragmentation
 * (free pages, FMFI, clusters, largest cluster) and fault progress
 * and rate.
 *
 *   contig_top <timeline.jsonl>            follow until interrupted
 *   contig_top <timeline.jsonl> --once     render one frame and exit
 *     [--interval MS]  refresh period (default 500)
 *     [--frames N]     stop after N frames (0 = forever)
 *     [--plain]        no ANSI clear; frames append (logs, tests)
 *
 * The file is re-polled at each refresh, so it works equally on a
 * finished run (one static frame) and on a bench that is still
 * writing. Decoding reuses obs/snapshot's TimelineRecord machinery —
 * the same delta stream contig_inspect consumes offline.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "obs/snapshot.hh"

using namespace contig;

namespace
{

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "contig_top: %s\n", msg.c_str());
    std::exit(2);
}

/** One stream's reconstructed live state. */
struct StreamState
{
    std::uint64_t id = 0;
    std::string domain;
    std::uint64_t seq = 0;
    std::uint64_t tick = 0;
    obs::FlatSnap state;
    /** Previous frame's fault count, for the rate column. */
    double prevFaults = 0;
    bool sawFrame = false;
};

/**
 * Incremental reader: keeps the byte offset across refreshes and
 * consumes only complete lines, so a record the bench is mid-write
 * on is picked up next frame.
 */
class TimelineTail
{
  public:
    explicit TimelineTail(std::string path) : path_(std::move(path)) {}

    /** Drain new complete lines into the per-stream states. */
    void
    poll(std::map<std::uint64_t, StreamState> &streams)
    {
        std::ifstream in(path_, std::ios::binary);
        if (!in) {
            if (!openedOnce_)
                die("cannot open timeline '" + path_ + "'");
            return; // file vanished mid-run; keep the last state
        }
        openedOnce_ = true;
        in.seekg(0, std::ios::end);
        const std::streamoff size = in.tellg();
        if (size < offset_)
            offset_ = 0; // truncated (bench restarted): re-read
        in.seekg(offset_);
        std::string line;
        while (std::getline(in, line)) {
            if (in.eof() && !line.empty() && line.back() != '\n') {
                // Partial trailing line (no newline yet): leave it
                // for the next poll.
                break;
            }
            offset_ += static_cast<std::streamoff>(line.size()) + 1;
            ++lines_;
            if (line.empty())
                continue;
            std::string err;
            auto rec = obs::decodeTimelineRecord(line, &err);
            if (!rec)
                die(path_ + ":" + std::to_string(lines_) + ": " + err);
            StreamState &s = streams[rec->stream];
            s.id = rec->stream;
            s.domain = rec->domain;
            s.seq = rec->seq;
            s.tick = rec->tick;
            s.state = obs::applyRecord(s.state, *rec);
        }
    }

    std::uint64_t lines() const { return lines_; }

  private:
    std::string path_;
    std::streamoff offset_ = 0;
    std::uint64_t lines_ = 0;
    bool openedOnce_ = false;
};

double
flatGet(const obs::FlatSnap &s, const std::string &key, double fallback)
{
    const auto it = s.find(key);
    return it == s.end() ? fallback : it->second;
}

void
renderZones(const StreamState &s)
{
    bool header = false;
    for (int n = 0;; ++n) {
        const std::string z = "zone" + std::to_string(n) + ".";
        const auto fp = s.state.find(z + "free_pages");
        if (fp == s.state.end())
            break;
        if (!header) {
            std::printf("  %-6s %12s %8s %9s %12s\n", "zone",
                        "free_pages", "fmfi", "clusters", "largest_pgs");
            header = true;
        }
        std::printf("  %-6d %12.0f %8.4f %9.0f %12.0f\n", n, fp->second,
                    flatGet(s.state, z + "fmfi", 0),
                    flatGet(s.state, z + "clusters", 0),
                    flatGet(s.state, z + "largest_pages", 0));
    }
}

void
renderFrame(const std::string &path, std::uint64_t frame,
            std::map<std::uint64_t, StreamState> &streams,
            std::uint64_t lines, double interval_s, bool plain)
{
    if (!plain)
        std::fputs("\x1b[2J\x1b[H", stdout); // clear + home
    std::printf("contig_top — %s   frame %" PRIu64 ", %zu streams, "
                "%" PRIu64 " records\n\n",
                path.c_str(), frame, streams.size(), lines);
    for (auto &[id, s] : streams) {
        const double faults = flatGet(s.state, "faults", 0);
        const double dfaults = s.sawFrame ? faults - s.prevFaults : 0;
        std::printf("stream %" PRIu64 "  [%s]  seq %" PRIu64
                    "  tick %" PRIu64 "\n",
                    id, s.domain.c_str(), s.seq, s.tick);
        if (faults > 0 || s.state.count("faults"))
            std::printf("  faults %.0f (huge %.0f, cow %.0f, file %.0f)"
                        "  rate %.0f/s\n",
                        faults, flatGet(s.state, "faults.huge", 0),
                        flatGet(s.state, "faults.cow", 0),
                        flatGet(s.state, "faults.file", 0),
                        interval_s > 0 ? dfaults / interval_s : 0.0);
        s.prevFaults = faults;
        s.sawFrame = true;
        renderZones(s);
        std::printf("\n");
    }
    std::fflush(stdout);
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: contig_top <timeline.jsonl> [--once]"
                 " [--interval MS] [--frames N] [--plain]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    long interval_ms = 500;
    long frames = 0; // 0 = forever
    bool plain = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--once")
            frames = 1;
        else if (arg == "--interval" && has_next)
            interval_ms = std::strtol(argv[++i], nullptr, 10);
        else if (arg == "--frames" && has_next)
            frames = std::strtol(argv[++i], nullptr, 10);
        else if (arg == "--plain")
            plain = true;
        else if (!arg.empty() && arg[0] == '-')
            usage();
        else if (path.empty())
            path = arg;
        else
            usage();
    }
    if (path.empty() || interval_ms < 0 || frames < 0)
        usage();

    TimelineTail tail(path);
    std::map<std::uint64_t, StreamState> streams;
    const double interval_s = static_cast<double>(interval_ms) / 1000.0;
    for (std::uint64_t frame = 1;; ++frame) {
        tail.poll(streams);
        renderFrame(path, frame, streams, tail.lines(), interval_s,
                    plain);
        if (frames != 0 && frame >= static_cast<std::uint64_t>(frames))
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
    return 0;
}
