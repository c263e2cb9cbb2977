#include "obs/trace.hh"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <utility>

#include "base/json.hh"

namespace contig
{
namespace obs
{

constinit TraceSink gTraceSink;

namespace
{

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

std::uint32_t
parseTraceCategories(std::string_view spec)
{
    if (spec.empty() || spec == "all")
        return kCatAll;
    if (spec.size() > 2 && spec[0] == '0' &&
        (spec[1] == 'x' || spec[1] == 'X')) {
        std::uint32_t mask = 0;
        const char *end = spec.data() + spec.size();
        const auto [ptr, ec] =
            std::from_chars(spec.data() + 2, end, mask, 16);
        return ec == std::errc() && ptr == end ? mask : 0;
    }
    static constexpr std::pair<std::string_view, std::uint32_t> kNames[] =
        {{"fault", kCatFault},     {"alloc", kCatAlloc},
         {"promote", kCatPromote}, {"migrate", kCatMigrate},
         {"tlb", kCatTlb},         {"spot", kCatSpot},
         {"walk", kCatWalk},       {"daemon", kCatDaemon},
         {"phase", kCatPhase},     {"replay", kCatReplay}};
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string_view::npos)
            comma = spec.size();
        const std::string_view tok = spec.substr(pos, comma - pos);
        std::uint32_t bit = 0;
        for (const auto &[name, b] : kNames)
            if (tok == name)
                bit = b;
        if (bit == 0)
            return 0; // an unknown name voids the whole list
        mask |= bit;
        pos = comma + 1;
    }
    return mask;
}

void
TraceSink::setCapacity(std::size_t events)
{
    capacity_ = events ? events : 1;
    ring_.clear();
    ring_.shrink_to_fit();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
}

std::uint64_t
TraceSink::nowNs() const
{
    const std::uint64_t now = monotonicNs();
    if (epochNs_ < 0)
        epochNs_ = static_cast<std::int64_t>(now);
    return now - static_cast<std::uint64_t>(epochNs_);
}

TraceEvent &
TraceSink::nextSlot()
{
    ++recorded_;
    if (ring_.size() < capacity_) {
        ring_.emplace_back();
        return ring_.back();
    }
    // Ring full: overwrite the oldest event.
    TraceEvent &slot = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
    return slot;
}

void
TraceSink::record(TraceEventKind kind, std::uint64_t a0, std::uint64_t a1,
                  std::uint64_t a2)
{
    TraceEvent &ev = nextSlot();
    ev.tsNs = nowNs();
    ev.durNs = 0;
    ev.args[0] = a0;
    ev.args[1] = a1;
    ev.args[2] = a2;
    ev.spanName = nullptr;
    ev.kind = kind;
}

void
TraceSink::recordSpan(const char *interned_name, std::uint64_t ts_ns,
                      std::uint64_t dur_ns, std::uint64_t a0)
{
    TraceEvent &ev = nextSlot();
    ev.tsNs = ts_ns;
    ev.durNs = dur_ns;
    ev.args[0] = a0;
    ev.args[1] = 0;
    ev.args[2] = 0;
    ev.spanName = interned_name;
    ev.kind = TraceEventKind::PhaseSpan;
}

const char *
TraceSink::intern(std::string_view name)
{
    for (const auto &s : interned_)
        if (*s == name)
            return s->c_str();
    interned_.push_back(std::make_unique<std::string>(name));
    return interned_.back()->c_str();
}

std::size_t
TraceSink::size() const
{
    return ring_.size();
}

void
TraceSink::clear()
{
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
}

std::vector<TraceEvent>
TraceSink::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    // head_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

namespace
{

const char *
categoryName(std::uint32_t category)
{
    switch (category) {
      case kCatFault: return "fault";
      case kCatAlloc: return "alloc";
      case kCatPromote: return "promote";
      case kCatMigrate: return "migrate";
      case kCatTlb: return "tlb";
      case kCatSpot: return "spot";
      case kCatWalk: return "walk";
      case kCatDaemon: return "daemon";
      case kCatPhase: return "phase";
      case kCatReplay: return "replay";
      default: return "other";
    }
}

void
writeEventJson(JsonWriter &w, const TraceEvent &ev, bool chrome)
{
    const TraceEventDesc &desc =
        kTraceEventDescs[static_cast<std::size_t>(ev.kind)];
    const bool span = traceIsSpanKind(ev.kind);

    w.beginObject();
    w.field("name", span && ev.spanName ? ev.spanName : desc.name);
    w.field("cat", categoryName(desc.category));
    if (chrome) {
        // Chrome trace_event: ts/dur in microseconds, instant events
        // need a scope, complete events carry dur. Every event comes
        // from the one simulator thread, so pid/tid are constant.
        w.field("ph", span ? "X" : "i");
        w.field("ts", static_cast<double>(ev.tsNs) / 1000.0);
        if (span)
            w.field("dur", static_cast<double>(ev.durNs) / 1000.0);
        else
            w.field("s", "t");
        w.field("pid", std::uint64_t{1});
        w.field("tid", std::uint64_t{1});
    } else {
        w.field("ts_ns", ev.tsNs);
        if (span)
            w.field("dur_ns", ev.durNs);
    }
    w.key("args");
    w.beginObject();
    for (unsigned i = 0; i < 3; ++i)
        if (desc.args[i])
            w.field(desc.args[i], ev.args[i]);
    w.endObject();
    w.endObject();
}

} // namespace

bool
TraceSink::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;

    const std::vector<TraceEvent> evs = events();

    JsonWriter w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const TraceEvent &ev : evs)
        writeEventJson(w, ev, /*chrome=*/true);
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.key("otherData");
    w.beginObject();
    w.field("recorded", recorded_);
    w.field("dropped", dropped_);
    w.endObject();
    w.endObject();

    const std::string &s = w.str();
    std::fwrite(s.data(), 1, s.size(), f);
    std::fclose(f);
    return true;
}

bool
TraceSink::writeJsonl(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const TraceEvent &ev : events()) {
        JsonWriter w;
        writeEventJson(w, ev, /*chrome=*/false);
        const std::string &s = w.str();
        std::fwrite(s.data(), 1, s.size(), f);
        std::fputc('\n', f);
    }
    std::fclose(f);
    return true;
}

} // namespace obs
} // namespace contig
