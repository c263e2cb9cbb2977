#include "obs/metrics.hh"

#include <algorithm>

#include "base/json.hh"
#include "base/logging.hh"

namespace contig
{
namespace obs
{

void
MetricSample::mergeFrom(const MetricSample &other)
{
    contig_assert(type == other.type,
                  "metric type mismatch while merging samples");
    switch (type) {
      case MetricType::Counter:
        counter += other.counter;
        break;
      case MetricType::Summary:
        summary.merge(other.summary);
        break;
      case MetricType::Histogram:
        if (buckets.size() < other.buckets.size())
            buckets.resize(other.buckets.size(), 0);
        for (std::size_t i = 0; i < other.buckets.size(); ++i)
            buckets[i] += other.buckets[i];
        break;
    }
}

MetricSample &
MetricSink::at(std::string_view name, MetricType type)
{
    std::string full = prefix_;
    full += name;
    auto it = samples_.find(full);
    if (it == samples_.end()) {
        it = samples_.emplace(std::move(full), MetricSample{}).first;
        it->second.type = type;
    } else {
        contig_assert(it->second.type == type,
                      "metric '%s' reported with two types",
                      it->first.c_str());
    }
    return it->second;
}

void
MetricSink::counter(std::string_view name, std::uint64_t v)
{
    at(name, MetricType::Counter).counter += v;
}

void
MetricSink::summary(std::string_view name, const Summary &s)
{
    at(name, MetricType::Summary).summary.merge(s);
}

void
MetricSink::summary(std::string_view name, double v)
{
    at(name, MetricType::Summary).summary.add(v);
}

void
MetricSink::histogram(std::string_view name, const Log2Histogram &h)
{
    MetricSample &sample = at(name, MetricType::Histogram);
    if (sample.buckets.size() < h.numBuckets())
        sample.buckets.resize(h.numBuckets(), 0);
    for (unsigned i = 0; i < h.numBuckets(); ++i)
        sample.buckets[i] += h.bucket(i);
}

MetricSink::Scope::Scope(MetricSink &sink, std::string_view prefix)
    : sink_(sink), savedLen_(sink.prefix_.size())
{
    sink_.prefix_ += prefix;
    sink_.prefix_ += '.';
}

MetricSink::Scope::~Scope()
{
    sink_.prefix_.resize(savedLen_);
}

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry instance;
    return instance;
}

namespace
{

MetricSample &
ownedSlot(SampleMap &owned, std::string_view name, MetricType type)
{
    auto it = owned.find(name);
    if (it == owned.end()) {
        it = owned.emplace(std::string(name), MetricSample{}).first;
        it->second.type = type;
    } else {
        contig_assert(it->second.type == type,
                      "owned metric '%s' requested with two types",
                      it->first.c_str());
    }
    return it->second;
}

} // namespace

std::uint64_t &
MetricRegistry::counter(std::string_view name)
{
    return ownedSlot(owned_, name, MetricType::Counter).counter;
}

Summary &
MetricRegistry::summary(std::string_view name)
{
    return ownedSlot(owned_, name, MetricType::Summary).summary;
}

MetricRegistry::SourceId
MetricRegistry::addSource(std::string prefix, CollectFn fn)
{
    const SourceId id = nextSourceId_++;
    sources_.push_back({id, std::move(prefix), std::move(fn)});
    return id;
}

void
MetricRegistry::removeSource(SourceId id, bool absorb_final)
{
    auto it = std::find_if(sources_.begin(), sources_.end(),
                           [&](const Source &s) { return s.id == id; });
    if (it == sources_.end())
        return;
    if (absorb_final && it->fn) {
        MetricSink sink;
        MetricSink::Scope scope(sink, it->prefix);
        it->fn(sink);
        absorb(sink.samples());
    }
    sources_.erase(it);
}

void
MetricRegistry::absorb(const SampleMap &samples)
{
    for (const auto &[name, sample] : samples) {
        auto it = owned_.find(name);
        if (it == owned_.end())
            owned_.emplace(name, sample);
        else
            it->second.mergeFrom(sample);
    }
}

void
MetricRegistry::collectInto(MetricSink &sink) const
{
    for (const Source &src : sources_) {
        MetricSink::Scope scope(sink, src.prefix);
        src.fn(sink);
    }
}

SampleMap
MetricRegistry::snapshot() const
{
    MetricSink sink;
    collectInto(sink);
    SampleMap out = sink.samples();
    for (const auto &[name, sample] : owned_) {
        auto [it, inserted] = out.emplace(name, sample);
        if (!inserted)
            it->second.mergeFrom(sample);
    }
    return out;
}

namespace
{

/** A summary nothing fed, or a histogram with no weight. */
bool
emptySection(const MetricSample &s)
{
    switch (s.type) {
      case MetricType::Summary:
        return s.summary.count() == 0;
      case MetricType::Histogram:
        return std::all_of(s.buckets.begin(), s.buckets.end(),
                           [](std::uint64_t b) { return b == 0; });
      default:
        return false;
    }
}

} // namespace

void
MetricRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[name, s] : snapshot()) {
        if (emptySection(s))
            continue;
        w.key(name);
        switch (s.type) {
          case MetricType::Counter:
            w.value(s.counter);
            break;
          case MetricType::Summary:
            w.beginObject();
            w.field("count", s.summary.count());
            w.field("sum", s.summary.sum());
            w.field("min", s.summary.min());
            w.field("max", s.summary.max());
            w.field("mean", s.summary.mean());
            w.endObject();
            break;
          case MetricType::Histogram:
            w.beginObject();
            w.key("log2_buckets");
            w.beginArray();
            for (std::uint64_t b : s.buckets)
                w.value(b);
            w.endArray();
            w.endObject();
            break;
        }
    }
    w.endObject();
}

void
MetricRegistry::resetOwned()
{
    owned_.clear();
}

} // namespace obs
} // namespace contig
