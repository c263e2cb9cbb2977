#include "obs/snapshot.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/json.hh"
#include "base/types.hh"

namespace contig
{
namespace obs
{

double
fmfiFromCounts(const std::vector<std::uint64_t> &counts, unsigned order)
{
    std::uint64_t free_pages = 0;
    std::uint64_t usable = 0;
    for (unsigned o = 0; o < counts.size(); ++o) {
        const std::uint64_t pages = counts[o] * pagesInOrder(o);
        free_pages += pages;
        if (o >= order)
            usable += pages;
    }
    if (free_pages == 0)
        return 0.0;
    return static_cast<double>(free_pages - usable) /
           static_cast<double>(free_pages);
}

std::vector<VmaRunSnap>
vmaRunStats(const std::vector<Seg> &segs,
            const std::vector<VmaSpan> &vma_spans, std::uint32_t pid,
            const std::string &dim)
{
    struct Acc
    {
        std::uint64_t pages = 0;
        std::uint64_t runs = 0;
        std::uint64_t maxRun = 0;
        double sumSq = 0.0;
    };
    std::vector<Acc> acc(vma_spans.size());

    // Segments and spans are both vpn-sorted; walk them together. A
    // segment never crosses a VMA boundary (faults resolve per VMA).
    std::size_t v = 0;
    for (const Seg &seg : segs) {
        while (v < vma_spans.size() && vma_spans[v].end <= seg.vpn)
            ++v;
        if (v >= vma_spans.size() || seg.vpn < vma_spans[v].start)
            continue;
        Acc &a = acc[v];
        a.pages += seg.pages;
        a.runs += 1;
        a.maxRun = std::max(a.maxRun, seg.pages);
        a.sumSq += static_cast<double>(seg.pages) *
                   static_cast<double>(seg.pages);
    }

    std::vector<VmaRunSnap> out;
    for (std::size_t i = 0; i < vma_spans.size(); ++i) {
        if (acc[i].runs == 0)
            continue;
        VmaRunSnap s;
        s.dim = dim;
        s.pid = pid;
        s.vmaId = vma_spans[i].vmaId;
        s.pages = acc[i].pages;
        s.runs = acc[i].runs;
        s.maxRun = acc[i].maxRun;
        s.weightedMeanRun =
            acc[i].sumSq / static_cast<double>(acc[i].pages);
        out.push_back(std::move(s));
    }
    return out;
}

namespace
{

std::string
zoneKey(unsigned node, const char *leaf)
{
    return "zone" + std::to_string(node) + "." + leaf;
}

void
flattenHist(FlatSnap &flat, const std::string &prefix,
            const Log2Histogram &hist)
{
    for (unsigned b = 0; b < hist.numBuckets(); ++b)
        if (hist.bucket(b))
            flat[prefix + std::to_string(b)] =
                static_cast<double>(hist.bucket(b));
}

} // namespace

FlatSnap
flatten(const Snapshot &snap)
{
    FlatSnap flat;
    flat["faults"] = static_cast<double>(snap.faults);
    flat["faults.huge"] = static_cast<double>(snap.hugeFaults);
    flat["faults.cow"] = static_cast<double>(snap.cowFaults);
    flat["faults.file"] = static_cast<double>(snap.fileFaults);

    for (const ZoneSnap &z : snap.zones) {
        flat[zoneKey(z.node, "free_pages")] =
            static_cast<double>(z.freePages);
        flat[zoneKey(z.node, "fmfi")] = z.fmfi;
        flat[zoneKey(z.node, "clusters")] =
            static_cast<double>(z.clusterCount);
        flat[zoneKey(z.node, "largest_pages")] =
            static_cast<double>(z.largestClusterPages);
        for (unsigned o = 0; o < z.freeBlocks.size(); ++o)
            flat[zoneKey(z.node, "order") + std::to_string(o)] =
                static_cast<double>(z.freeBlocks[o]);
        flattenHist(flat, zoneKey(z.node, "chist"), z.clusterHist);
        if (z.hasFreeHist)
            flattenHist(flat, zoneKey(z.node, "fhist"), z.freeHist);
    }

    for (const VmaRunSnap &v : snap.vmaRuns) {
        const std::string base = "vma" + v.dim + "." +
                                 std::to_string(v.pid) + "." +
                                 std::to_string(v.vmaId) + ".";
        flat[base + "pages"] = static_cast<double>(v.pages);
        flat[base + "runs"] = static_cast<double>(v.runs);
        flat[base + "max_run"] = static_cast<double>(v.maxRun);
        flat[base + "wmean_run"] = v.weightedMeanRun;
    }

    if (snap.hasCoverage) {
        flat["cov.cov32"] = snap.coverage.cov32;
        flat["cov.cov128"] = snap.coverage.cov128;
        flat["cov.maps99"] =
            static_cast<double>(snap.coverage.mappingsFor99);
        flat["cov.mappings"] = static_cast<double>(snap.coverage.mappings);
        flat["cov.pages"] = static_cast<double>(snap.coverage.totalPages);
    }

    if (snap.hasXlat) {
        const XlatSnap &x = snap.xlat;
        flat["xlat.accesses"] = static_cast<double>(x.accesses);
        flat["xlat.l1_hits"] = static_cast<double>(x.l1Hits);
        flat["xlat.l2_hits"] = static_cast<double>(x.l2Hits);
        flat["xlat.walks"] = static_cast<double>(x.walks);
        flat["xlat.walk_refs"] = static_cast<double>(x.walkRefs);
        flat["xlat.walk_cycles"] = static_cast<double>(x.walkCycles);
        flat["xlat.exposed_cycles"] =
            static_cast<double>(x.exposedCycles);
        flat["spot.correct"] = static_cast<double>(x.spotCorrect);
        flat["spot.mispredicted"] =
            static_cast<double>(x.spotMispredicted);
        flat["spot.no_prediction"] =
            static_cast<double>(x.spotNoPrediction);
        flat["spot.fills"] = static_cast<double>(x.spotFills);
        flat["spot.coverage"] = x.spotCoverage;
        flat["spot.accuracy"] = x.spotAccuracy;
    }

    for (const auto &[key, value] : snap.extras)
        flat[key] = value;
    return flat;
}

FlatDelta
diffFlat(const FlatSnap &prev, const FlatSnap &next)
{
    FlatDelta delta;
    for (const auto &[key, value] : next) {
        auto it = prev.find(key);
        if (it == prev.end() || it->second != value)
            delta.set.emplace(key, value);
    }
    for (const auto &[key, value] : prev) {
        (void)value;
        if (!next.count(key))
            delta.del.push_back(key);
    }
    return delta;
}

FlatSnap
applyDelta(const FlatSnap &prev, const FlatDelta &delta)
{
    FlatSnap next = prev;
    for (const std::string &key : delta.del)
        next.erase(key);
    for (const auto &[key, value] : delta.set)
        next[key] = value;
    return next;
}

std::string
encodeTimelineRecord(const TimelineRecord &rec)
{
    JsonWriter w;
    w.beginObject();
    w.field("stream", rec.stream);
    w.field("domain", rec.domain);
    w.field("seq", rec.seq);
    w.field("tick", rec.tick);
    w.field("kind", rec.full ? "full" : "delta");
    w.key("set");
    w.beginObject();
    for (const auto &[key, value] : rec.set)
        w.field(key, value);
    w.endObject();
    if (!rec.del.empty()) {
        w.key("del");
        w.beginArray();
        for (const std::string &key : rec.del)
            w.value(key);
        w.endArray();
    }
    w.endObject();
    return std::move(w).str();
}

std::optional<TimelineRecord>
decodeTimelineRecord(std::string_view line, std::string *err)
{
    auto doc = JsonValue::parse(line, err);
    if (!doc)
        return std::nullopt;
    if (!doc->isObject()) {
        if (err)
            *err = "timeline line is not a JSON object";
        return std::nullopt;
    }

    TimelineRecord rec;
    const JsonValue *kind = doc->find("kind");
    if (!kind || !kind->isString() ||
        (kind->asString() != "full" && kind->asString() != "delta")) {
        if (err)
            *err = "missing or bad 'kind' (want \"full\"/\"delta\")";
        return std::nullopt;
    }
    rec.full = kind->asString() == "full";

    const std::pair<const char *, std::uint64_t *> counts[] = {
        {"stream", &rec.stream}, {"seq", &rec.seq}, {"tick", &rec.tick}};
    for (const auto &[field, dst] : counts) {
        const JsonValue *v = doc->find(field);
        const auto n = v ? v->asUint() : std::nullopt;
        if (!n) {
            if (err)
                *err = std::string("missing or bad '") + field +
                       "' (want an unsigned integer)";
            return std::nullopt;
        }
        *dst = *n;
    }
    if (const JsonValue *d = doc->find("domain"); d && d->isString())
        rec.domain = d->asString();

    const JsonValue *set = doc->find("set");
    if (!set || !set->isObject()) {
        if (err)
            *err = "missing or bad 'set' object";
        return std::nullopt;
    }
    for (const auto &[key, value] : set->members()) {
        if (!value.isNumber()) {
            if (err)
                *err = "non-numeric value for key '" + key + "'";
            return std::nullopt;
        }
        rec.set.emplace(key, value.asNumber());
    }

    if (const JsonValue *del = doc->find("del")) {
        if (!del->isArray()) {
            if (err)
                *err = "'del' is not an array";
            return std::nullopt;
        }
        for (const JsonValue &key : del->array()) {
            if (!key.isString()) {
                if (err)
                    *err = "'del' entry is not a string";
                return std::nullopt;
            }
            rec.del.push_back(key.asString());
        }
    }
    return rec;
}

FlatSnap
applyRecord(const FlatSnap &prev, const TimelineRecord &rec)
{
    if (rec.full)
        return rec.set;
    FlatDelta delta;
    delta.set = rec.set;
    delta.del = rec.del;
    return applyDelta(prev, delta);
}

} // namespace obs
} // namespace contig
