#include "core/cells.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/logging.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/observatory.hh"

namespace contig
{

unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    const int n = CPU_COUNT(&set);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

namespace
{

// --- the exact export -----------------------------------------------------
//
// One record per line: a type letter, a length-prefixed name
// ("13:kernel.faults") and typed fields, each after one space.
//   c NAME U64                  counter
//   s NAME COUNT SUM MIN MAX    summary
//   h NAME N B0 .. B(N-1)       histogram buckets
//   v KEY VALUE                 one RunInfo value of KEY (length-prefixed)
//   n KEY U64                   RunInfo counter
//   x LABEL SEQ CHUNK CELL*96 M EXEMPLAR*M
//                               translation attribution table
//   f 5:fault CELL*18           fault attribution table
// U64 is decimal and F64 is a %a hex float, so every value
// round-trips bit for bit. An attribution table lists every cell,
// outcome (or kind, order, fallback) major, each as EVENTS CYCLES
// EXPOSED N B0 .. B(N-1); an exemplar is VPN CYCLES OUTCOME CLASS
// CHUNK SEQ.

void
putStr(std::string &out, std::string_view s)
{
    out += ' ';
    out += std::to_string(s.size());
    out += ':';
    out += s;
}

void
putU64(std::string &out, std::uint64_t v)
{
    out += ' ';
    out += std::to_string(v);
}

void
putF64(std::string &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %a", v);
    out += buf;
}

void
putCell(std::string &out, const obs::CostCell &c)
{
    putU64(out, c.events);
    putU64(out, c.cycles);
    putU64(out, c.exposed);
    putU64(out, c.hist.numBuckets());
    for (unsigned b = 0; b < c.hist.numBuckets(); ++b)
        putU64(out, c.hist.bucket(b));
}

/**
 * This process's owned metrics, RunInfo record and attribution
 * tables, exactly.
 */
std::string
exportState()
{
    std::string out;
    for (const auto &[name, s] : obs::MetricRegistry::global().owned()) {
        switch (s.type) {
          case obs::MetricType::Counter:
            out += 'c';
            putStr(out, name);
            putU64(out, s.counter);
            break;
          case obs::MetricType::Summary:
            out += 's';
            putStr(out, name);
            putU64(out, s.summary.count());
            putF64(out, s.summary.sum());
            putF64(out, s.summary.min());
            putF64(out, s.summary.max());
            break;
          case obs::MetricType::Histogram:
            out += 'h';
            putStr(out, name);
            putU64(out, s.buckets.size());
            for (std::uint64_t b : s.buckets)
                putU64(out, b);
            break;
        }
        out += '\n';
    }
    const obs::RunInfo &ri = obs::RunInfo::global();
    for (const auto &[key, vals] : ri.values()) {
        for (const std::string &v : vals) {
            out += 'v';
            putStr(out, key);
            putStr(out, v);
            out += '\n';
        }
    }
    for (const auto &[key, n] : ri.counts()) {
        out += 'n';
        putStr(out, key);
        putU64(out, n);
        out += '\n';
    }
    const obs::AttribRegistry &attrib = obs::AttribRegistry::global();
    for (const std::string &label : attrib.labels()) {
        const obs::XlatAttribution &t = *attrib.xlat(label);
        out += 'x';
        putStr(out, label);
        putU64(out, t.events());
        putU64(out, t.chunk());
        for (unsigned o = 0; o < obs::kXlatOutcomes; ++o)
            for (unsigned c = 0; c < obs::kContigClasses; ++c)
                putCell(out, t.cell(o, c));
        putU64(out, t.exemplars().size());
        for (const obs::XlatAttribution::Exemplar &e : t.exemplars()) {
            putU64(out, e.vpn);
            putU64(out, e.cycles);
            putU64(out, e.outcome);
            putU64(out, e.cls);
            putU64(out, e.chunk);
            putU64(out, e.seq);
        }
        out += '\n';
    }
    if (attrib.fault().events() != 0) {
        out += 'f';
        putStr(out, "fault");
        for (unsigned k = 0; k < obs::kFaultKinds; ++k)
            for (unsigned o = 0; o < obs::kFaultOrders; ++o)
                for (unsigned f = 0; f < obs::kFaultFalls; ++f)
                    putCell(out, attrib.fault().cell(k, o, f));
        out += '\n';
    }
    return out;
}

/** Reads exportState() text; each getter returns false on bad input. */
class ExportReader
{
  public:
    explicit ExportReader(std::string_view text) : s_(text) {}

    bool done() const { return pos_ == s_.size(); }

    bool
    kind(char &c)
    {
        if (done())
            return false;
        c = s_[pos_++];
        return true;
    }

    bool
    newline()
    {
        return lit('\n');
    }

    bool
    str(std::string &out)
    {
        std::uint64_t len = 0;
        if (!lit(' ') || !digits(len) || !lit(':') ||
            len > s_.size() - pos_)
            return false;
        out.assign(s_.substr(pos_, len));
        pos_ += len;
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        return lit(' ') && digits(v);
    }

    bool
    f64(double &v)
    {
        if (!lit(' '))
            return false;
        const std::size_t end = s_.find_first_of(" \n", pos_);
        if (end == std::string_view::npos || end == pos_)
            return false;
        const std::string tok(s_.substr(pos_, end - pos_));
        char *stop = nullptr;
        v = std::strtod(tok.c_str(), &stop);
        if (stop != tok.c_str() + tok.size())
            return false;
        pos_ = end;
        return true;
    }

  private:
    bool
    lit(char c)
    {
        if (done() || s_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    digits(std::uint64_t &v)
    {
        const char *first = s_.data() + pos_;
        const char *last = s_.data() + s_.size();
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec != std::errc{})
            return false;
        pos_ += static_cast<std::size_t>(ptr - first);
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

/** Read one putCell() cell into an empty cell. */
bool
readCell(ExportReader &in, obs::CostCell &c)
{
    std::uint64_t n = 0;
    // A Log2Histogram over u64 values has at most 64 buckets.
    if (!in.u64(c.events) || !in.u64(c.cycles) || !in.u64(c.exposed) ||
        !in.u64(n) || n > 64) {
        return false;
    }
    for (unsigned b = 0; b < n; ++b) {
        std::uint64_t w = 0;
        if (!in.u64(w))
            return false;
        // add() sizes the histogram even for a zero weight.
        c.hist.add(b == 0 ? 0 : std::uint64_t{1} << b, w);
    }
    return true;
}

/** Read the fields of an exportState() 'x' record into t. */
bool
readXlat(ExportReader &in, obs::XlatAttribution &t)
{
    std::uint64_t seq = 0, chunk = 0, m = 0;
    if (!in.u64(seq) || !in.u64(chunk))
        return false;
    for (unsigned o = 0; o < obs::kXlatOutcomes; ++o)
        for (unsigned c = 0; c < obs::kContigClasses; ++c)
            if (!readCell(in, t.cell(o, c)))
                return false;
    if (!in.u64(m) || m > obs::XlatAttribution::kExemplarCapacity)
        return false;
    std::vector<obs::XlatAttribution::Exemplar> exemplars(m);
    for (obs::XlatAttribution::Exemplar &e : exemplars) {
        std::uint64_t outcome = 0, cls = 0;
        if (!in.u64(e.vpn) || !in.u64(e.cycles) || !in.u64(outcome) ||
            outcome >= obs::kXlatOutcomes || !in.u64(cls) ||
            cls >= obs::kContigClasses || !in.u64(e.chunk) ||
            !in.u64(e.seq)) {
            return false;
        }
        e.outcome = static_cast<std::uint8_t>(outcome);
        e.cls = static_cast<std::uint8_t>(cls);
    }
    t.setChunk(chunk);
    t.restore(exemplars, seq);
    return true;
}

/**
 * Merge one cell's exportState() text into this process's owned
 * metrics, RunInfo record and attribution tables. Nothing is merged
 * from malformed text.
 */
bool
absorbState(std::string_view text)
{
    obs::SampleMap samples;
    obs::RunInfo info;
    std::vector<obs::XlatAttribution> xlat;
    std::optional<obs::FaultAttribution> fault;
    ExportReader in(text);
    while (!in.done()) {
        char kind = 0;
        std::string name;
        if (!in.kind(kind) || !in.str(name))
            return false;
        obs::MetricSample s;
        bool ok = true;
        switch (kind) {
          case 'c':
            s.type = obs::MetricType::Counter;
            ok = in.u64(s.counter);
            break;
          case 's': {
            std::uint64_t count = 0;
            double sum = 0, min = 0, max = 0;
            ok = in.u64(count) && in.f64(sum) && in.f64(min) &&
                 in.f64(max);
            s.type = obs::MetricType::Summary;
            s.summary = Summary::fromParts(count, sum, min, max);
            break;
          }
          case 'h': {
            std::uint64_t n = 0;
            // A Log2Histogram over u64 values has at most 64 buckets.
            ok = in.u64(n) && n <= 64;
            s.type = obs::MetricType::Histogram;
            s.buckets.resize(ok ? n : 0);
            for (std::uint64_t &b : s.buckets)
                ok = ok && in.u64(b);
            break;
          }
          case 'v': {
            std::string value;
            ok = in.str(value);
            if (ok)
                info.note(name, std::string_view(value));
            break;
          }
          case 'n': {
            std::uint64_t n = 0;
            ok = in.u64(n);
            if (ok)
                info.count(name, n);
            break;
          }
          case 'x':
            ok = readXlat(in, xlat.emplace_back(name));
            break;
          case 'f':
            ok = !fault;
            fault.emplace();
            for (unsigned k = 0; k < obs::kFaultKinds; ++k)
                for (unsigned o = 0; o < obs::kFaultOrders; ++o)
                    for (unsigned f = 0; f < obs::kFaultFalls; ++f)
                        ok = ok && readCell(in, fault->cell(k, o, f));
            break;
          default:
            ok = false;
        }
        if (!ok || !in.newline())
            return false;
        const bool metric = kind == 'c' || kind == 's' || kind == 'h';
        if (metric && !samples.emplace(std::move(name), std::move(s)).second)
            return false;
    }
    obs::MetricRegistry::global().absorb(samples);
    obs::RunInfo::global().absorb(info);
    obs::AttribRegistry &attrib = obs::AttribRegistry::global();
    for (const obs::XlatAttribution &t : xlat)
        attrib.absorbXlat(t);
    if (fault)
        attrib.absorbFault(*fault);
    return true;
}

// --- the pool ---------------------------------------------------------

/** Run one leg in a fresh child and leave without any cleanup. */
[[noreturn]] void
runChild(std::size_t leg, std::size_t size,
         const detail::ForkPool::LegFn &fn, std::FILE *file)
{
    obs::MetricRegistry::global().resetOwned();
    obs::RunInfo::global().clear();
    obs::AttribRegistry::global().reset();
    std::string msg(size, '\0');
    fn(msg.data());
    msg += exportState();
    const bool ok =
        std::fwrite(msg.data(), 1, msg.size(), file) == msg.size() &&
        std::fflush(file) == 0;
    if (!ok)
        std::fprintf(stderr, "cell %zu: cannot write its result\n", leg);
    _exit(ok ? 0 : 1);
}

/** The whole file from its start; false on a read error. */
bool
readAll(std::FILE *file, std::string &out)
{
    std::rewind(file);
    char buf[1 << 14];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        out.append(buf, got);
    return std::ferror(file) == 0;
}

} // namespace

namespace detail
{

ForkPool::ForkPool(std::size_t legs, std::size_t size, unsigned jobs)
    : legs_(legs), size_(size), jobs_(jobs == 0 ? affinityCpus() : jobs),
      // An open timeline records per-event data that cannot be merged
      // across processes.
      inline_(jobs_ <= 1 || obs::TimelineSink::global().enabled())
{
    if (inline_)
        results_.resize(legs);
    else
        files_.resize(legs, nullptr);
}

ForkPool::~ForkPool()
{
    killAll();
}

void
ForkPool::spawn(const LegFn &fn)
{
    contig_assert(spawned_ < legs_, "a pool of %zu legs got another",
                  legs_);
    const std::size_t leg = spawned_++;
    if (inline_) {
        results_[leg].assign(size_, '\0');
        fn(results_[leg].data());
        return;
    }
    if (running_.size() >= jobs_)
        reapOne();
    std::FILE *file = std::tmpfile();
    if (!file) {
        fail(csprintf("cannot create a temp file for cell %zu: %s", leg,
                      std::strerror(errno)));
    }
    files_[leg] = file;
    // Nothing buffered may be written twice.
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        fail(csprintf("cannot fork cell %zu: %s", leg, std::strerror(errno)));
    if (pid == 0)
        runChild(leg, size_, fn, file);
    running_.push_back({pid, leg});
}

void
ForkPool::join(void *out)
{
    contig_assert(spawned_ == legs_, "%zu of a pool's %zu legs spawned",
                  spawned_, legs_);
    auto *dst = static_cast<unsigned char *>(out);
    if (inline_) {
        for (std::size_t leg = 0; leg < legs_; ++leg)
            std::memcpy(dst + leg * size_, results_[leg].data(), size_);
        return;
    }
    while (!running_.empty())
        reapOne();
    for (std::size_t leg = 0; leg < legs_; ++leg) {
        std::string msg;
        const bool read = readAll(files_[leg], msg) && msg.size() >= size_;
        std::fclose(files_[leg]);
        files_[leg] = nullptr;
        if (!read)
            fail(csprintf("cannot read the result of cell %zu", leg));
        std::memcpy(dst + leg * size_, msg.data(), size_);
        if (!absorbState(std::string_view(msg).substr(size_)))
            fail(csprintf("malformed metrics from cell %zu", leg));
    }
}

void
ForkPool::reapOne()
{
    for (;;) {
        int status = 0;
        const pid_t pid = waitpid(-1, &status, 0);
        if (pid < 0) {
            if (errno == EINTR)
                continue;
            fail(csprintf("waiting for cells: %s", std::strerror(errno)));
        }
        auto it = std::find_if(running_.begin(), running_.end(),
                               [pid](const Child &c) { return c.pid == pid; });
        if (it == running_.end())
            continue; // not a cell
        const std::size_t leg = it->leg;
        running_.erase(it);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
            return;
        if (WIFSIGNALED(status)) {
            fail(csprintf("cell %zu of %zu died on signal %d (%s)", leg,
                          legs_, WTERMSIG(status),
                          strsignal(WTERMSIG(status))));
        }
        fail(csprintf("cell %zu of %zu exited with status %d", leg, legs_,
                      WEXITSTATUS(status)));
    }
}

void
ForkPool::killAll()
{
    for (const Child &c : running_) {
        kill(c.pid, SIGKILL);
        waitpid(c.pid, nullptr, 0);
    }
    running_.clear();
    for (std::FILE *&file : files_) {
        if (file)
            std::fclose(file);
        file = nullptr;
    }
}

void
ForkPool::fail(const std::string &msg)
{
    killAll();
    // The binary's name is the bench's name.
    fatal("%s: %s", program_invocation_short_name, msg.c_str());
}

} // namespace detail

} // namespace contig
