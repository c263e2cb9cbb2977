#include "obs/attribution.hh"

#include <algorithm>

#include "base/json.hh"
#include "base/logging.hh"
#include "contig/analysis.hh"

namespace contig
{
namespace obs
{

namespace
{

const char *const kOutcomeNames[kXlatOutcomes] = {
    "tlb_hit", "segment_hit", "spot_hit",
    "range_hit", "psc_walk", "full_walk",
};

// Class b spans offset-runs of [2^b, 2^(b+1)) base pages; with 4 KiB
// pages that is 4K << b of contiguity. Class 9 is the THP size.
const char *const kClassNames[kContigClasses] = {
    "4K", "8K", "16K", "32K", "64K", "128K", "256K", "512K",
    "1M", "2M(THP)", "4M", "8M", "16M", "32M", "64M", ">=128M",
};

const char *const kKindNames[kFaultKinds] = {"anon", "cow", "file"};

const char *const kFallNames[kFaultFalls] = {"none", "no_huge_block", "oom"};

/**
 * Strict total order on exemplar content (hottest first). Because it
 * never compares equal for distinct events — vpn breaks ties across
 * tables, seq within one — the surviving top-K set is independent of
 * the order AttribRegistry absorbs tables in.
 */
bool
hotterThan(const XlatAttribution::Exemplar &a,
           const XlatAttribution::Exemplar &b)
{
    if (a.cycles != b.cycles)
        return a.cycles > b.cycles;
    if (a.chunk != b.chunk)
        return a.chunk < b.chunk;
    if (a.seq != b.seq)
        return a.seq < b.seq;
    if (a.vpn != b.vpn)
        return a.vpn < b.vpn;
    if (a.outcome != b.outcome)
        return a.outcome < b.outcome;
    return a.cls < b.cls;
}

} // namespace

const char *
xlatOutcomeName(XlatOutcome o)
{
    return kOutcomeNames[static_cast<unsigned>(o)];
}

const char *
contigClassName(unsigned cls)
{
    return kClassNames[cls < kContigClasses ? cls : kContigClasses - 1];
}

const char *
faultKindName(unsigned kind)
{
    return kKindNames[kind < kFaultKinds ? kind : 0];
}

const char *
faultFallName(unsigned fall)
{
    return kFallNames[fall < kFaultFalls ? fall : 0];
}

// --- ContigClassIndex -------------------------------------------------

unsigned
ContigClassIndex::classOfRun(std::uint64_t pages)
{
    unsigned b = 0;
    while ((std::uint64_t{1} << (b + 1)) <= pages &&
           b + 1 < kContigClasses)
        ++b;
    return b;
}

ContigClassIndex::ContigClassIndex(const std::vector<Seg> &segs)
{
    runs_.reserve(segs.size());
    for (const Seg &s : segs) {
        if (s.pages == 0)
            continue;
        runs_.push_back(Run{s.vpn, s.pages,
                            static_cast<std::uint8_t>(classOfRun(s.pages))});
    }
    std::sort(runs_.begin(), runs_.end(),
              [](const Run &a, const Run &b) { return a.vpn < b.vpn; });
}

unsigned
ContigClassIndex::classify(Vpn vpn) const
{
    // First run starting strictly after vpn; its predecessor is the
    // only candidate container (runs are maximal, so disjoint).
    auto it = std::upper_bound(
        runs_.begin(), runs_.end(), vpn,
        [](Vpn v, const Run &r) { return v < r.vpn; });
    if (it == runs_.begin())
        return 0;
    --it;
    return vpn < it->vpn + it->pages ? it->cls : 0;
}

// --- CostCell ---------------------------------------------------------

void
CostCell::mergeFrom(const CostCell &other)
{
    events += other.events;
    cycles += other.cycles;
    exposed += other.exposed;
    hist.mergeFrom(other.hist);
}

// --- XlatAttribution --------------------------------------------------

void
XlatAttribution::offer(const Exemplar &e)
{
    auto pos = std::upper_bound(exemplars_.begin(), exemplars_.end(), e,
                                hotterThan);
    if (exemplars_.size() >= kExemplarCapacity &&
        pos == exemplars_.end()) {
        return;
    }
    exemplars_.insert(pos, e);
    if (exemplars_.size() > kExemplarCapacity)
        exemplars_.pop_back();
}

void
XlatAttribution::restore(const std::vector<Exemplar> &exemplars,
                         std::uint64_t events)
{
    for (const Exemplar &e : exemplars)
        offer(e);
    seq_ = events;
}

CostCell
XlatAttribution::outcomeTotal(unsigned outcome) const
{
    CostCell total;
    for (unsigned c = 0; c < kContigClasses; ++c)
        total.mergeFrom(cells_[outcome][c]);
    return total;
}

void
XlatAttribution::mergeFrom(const XlatAttribution &other)
{
    for (unsigned o = 0; o < kXlatOutcomes; ++o)
        for (unsigned c = 0; c < kContigClasses; ++c)
            cells_[o][c].mergeFrom(other.cells_[o][c]);
    for (const Exemplar &e : other.exemplars_)
        offer(e);
    seq_ += other.seq_;
    chunk_ = std::max(chunk_, other.chunk_);
}

// --- FaultAttribution -------------------------------------------------

std::uint64_t
FaultAttribution::events() const
{
    std::uint64_t n = 0;
    for (unsigned k = 0; k < kFaultKinds; ++k)
        for (unsigned o = 0; o < kFaultOrders; ++o)
            for (unsigned f = 0; f < kFaultFalls; ++f)
                n += cells_[k][o][f].events;
    return n;
}

void
FaultAttribution::mergeFrom(const FaultAttribution &other)
{
    for (unsigned k = 0; k < kFaultKinds; ++k)
        for (unsigned o = 0; o < kFaultOrders; ++o)
            for (unsigned f = 0; f < kFaultFalls; ++f)
                cells_[k][o][f].mergeFrom(other.cells_[k][o][f]);
}

// --- AttribRegistry ---------------------------------------------------

AttribRegistry &
AttribRegistry::global()
{
    static AttribRegistry instance;
    return instance;
}

void
AttribRegistry::absorbXlat(const XlatAttribution &table)
{
    if (table.events() == 0 && table.exemplars().empty())
        return;
    auto it = xlat_.find(table.label());
    if (it == xlat_.end()) {
        it = xlat_.emplace(table.label(), XlatAttribution(table.label()))
                 .first;
    }
    it->second.mergeFrom(table);
}

void
AttribRegistry::absorbFault(const FaultAttribution &table)
{
    if (table.events() == 0)
        return;
    fault_.mergeFrom(table);
    hasFault_ = true;
}

bool
AttribRegistry::hasData() const
{
    return !xlat_.empty() || hasFault_;
}

std::vector<std::string>
AttribRegistry::labels() const
{
    std::vector<std::string> out;
    out.reserve(xlat_.size());
    for (const auto &kv : xlat_)
        out.push_back(kv.first);
    return out;
}

const XlatAttribution *
AttribRegistry::xlat(const std::string &label) const
{
    auto it = xlat_.find(label);
    return it == xlat_.end() ? nullptr : &it->second;
}

void
AttribRegistry::reset()
{
    xlat_.clear();
    fault_ = FaultAttribution{};
    hasFault_ = false;
}

namespace
{

void
writeCellBody(JsonWriter &w, const CostCell &cell, bool with_exposed)
{
    w.field("events", cell.events);
    if (with_exposed) {
        w.field("walk_cycles", cell.cycles);
        w.field("exposed_cycles", cell.exposed);
    } else {
        w.field("cycles", cell.cycles);
    }
    w.field("p50", cell.hist.percentile(0.50));
    w.field("p90", cell.hist.percentile(0.90));
    w.field("p99", cell.hist.percentile(0.99));
    w.key("hist");
    w.beginArray();
    for (unsigned i = 0; i < cell.hist.numBuckets(); ++i)
        w.value(cell.hist.bucket(i));
    w.endArray();
}

void
writeXlatTable(JsonWriter &w, const XlatAttribution &t)
{
    w.beginObject();
    CostCell grand;
    for (unsigned o = 0; o < kXlatOutcomes; ++o)
        grand.mergeFrom(t.outcomeTotal(o));
    w.field("events", grand.events);
    w.field("walk_cycles", grand.cycles);
    w.field("exposed_cycles", grand.exposed);
    w.key("outcomes");
    w.beginObject();
    for (unsigned o = 0; o < kXlatOutcomes; ++o) {
        const CostCell total = t.outcomeTotal(o);
        if (total.empty())
            continue;
        w.key(xlatOutcomeName(static_cast<XlatOutcome>(o)));
        w.beginObject();
        w.field("events", total.events);
        w.field("walk_cycles", total.cycles);
        w.field("exposed_cycles", total.exposed);
        w.field("exposed_p50", total.hist.percentile(0.50));
        w.field("exposed_p90", total.hist.percentile(0.90));
        w.field("exposed_p99", total.hist.percentile(0.99));
        w.key("classes");
        w.beginArray();
        for (unsigned c = 0; c < kContigClasses; ++c) {
            const CostCell &cell = t.cell(o, c);
            if (cell.empty())
                continue;
            w.beginObject();
            w.field("class", c);
            w.field("name", contigClassName(c));
            writeCellBody(w, cell, /*with_exposed=*/true);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.key("exemplars");
    w.beginArray();
    for (const XlatAttribution::Exemplar &e : t.exemplars()) {
        w.beginObject();
        w.field("vpn", e.vpn);
        w.field("cycles", e.cycles);
        w.field("outcome",
                xlatOutcomeName(static_cast<XlatOutcome>(e.outcome)));
        w.field("class", static_cast<unsigned>(e.cls));
        w.field("chunk", e.chunk);
        w.field("seq", e.seq);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

void
AttribRegistry::writeSection(JsonWriter &w) const
{
    if (xlat_.empty() && !hasFault_)
        return;
    w.key("attribution");
    w.beginObject();
    w.field("exemplar_capacity",
            static_cast<std::uint64_t>(XlatAttribution::kExemplarCapacity));
    w.field("classes", kContigClasses);
    w.key("xlat");
    w.beginObject();
    for (const auto &kv : xlat_) {
        w.key(kv.first);
        writeXlatTable(w, kv.second);
    }
    w.endObject();
    if (hasFault_) {
        w.key("fault");
        w.beginObject();
        CostCell grand;
        for (unsigned k = 0; k < kFaultKinds; ++k)
            for (unsigned o = 0; o < kFaultOrders; ++o)
                for (unsigned f = 0; f < kFaultFalls; ++f)
                    grand.mergeFrom(fault_.cell(k, o, f));
        w.field("events", grand.events);
        w.field("cycles", grand.cycles);
        w.key("cells");
        w.beginArray();
        for (unsigned k = 0; k < kFaultKinds; ++k) {
            for (unsigned o = 0; o < kFaultOrders; ++o) {
                for (unsigned f = 0; f < kFaultFalls; ++f) {
                    const CostCell &cell = fault_.cell(k, o, f);
                    if (cell.empty())
                        continue;
                    w.beginObject();
                    w.field("kind", faultKindName(k));
                    w.field("order", o == 0 ? "base" : "huge");
                    w.field("fallback", faultFallName(f));
                    writeCellBody(w, cell, /*with_exposed=*/false);
                    w.endObject();
                }
            }
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

} // namespace obs
} // namespace contig
