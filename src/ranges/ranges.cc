#include "ranges/ranges.hh"

#include <algorithm>

#include "base/align.hh"
#include "base/logging.hh"
#include "obs/metrics.hh"

namespace contig
{

RangeTable::RangeTable(std::vector<Seg> segs) : segs_(std::move(segs))
{
    std::sort(segs_.begin(), segs_.end(),
              [](const Seg &a, const Seg &b) { return a.vpn < b.vpn; });
}

std::optional<Seg>
RangeTable::lookup(Vpn vpn) const
{
    auto it = std::upper_bound(
        segs_.begin(), segs_.end(), vpn,
        [](Vpn v, const Seg &s) { return v < s.vpn; });
    if (it == segs_.begin())
        return std::nullopt;
    --it;
    if (vpn < it->vpn + it->pages)
        return *it;
    return std::nullopt;
}

RangeTlb::RangeTlb(const RangeTlbConfig &cfg, const RangeTable &table)
    : cfg_(cfg), table_(table), entries_(cfg.entries)
{
    contig_assert(cfg.entries > 0, "degenerate range TLB");
}

bool
RangeTlb::access(Vpn vpn)
{
    ++stats_.lookups;
    for (auto &e : entries_) {
        if (e.valid && vpn >= e.seg.vpn &&
            vpn < e.seg.vpn + e.seg.pages) {
            e.lastUse = ++clock_;
            ++stats_.hits;
            return true;
        }
    }
    // Miss: the background nested range walk refills the entry.
    auto seg = table_.lookup(vpn);
    if (!seg) {
        ++stats_.tableMisses;
        return false;
    }
    Entry *victim = &entries_[0];
    for (auto &e : entries_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->seg = *seg;
    victim->lastUse = ++clock_;
    ++stats_.refills;
    return false;
}

std::uint64_t
rangesFor99(const std::vector<Seg> &segs)
{
    return coverage(segs).mappingsFor99;
}

namespace
{

/** Entries needed at anchor distance d (pages) to cover >= 99 %. */
std::uint64_t
vhcEntriesAt(const std::vector<Seg> &segs, std::uint64_t d,
             std::uint64_t total_pages)
{
    // Build coverage units: (pages covered, entries spent).
    // Anchor entries cover whole d-aligned chunks that are physically
    // contiguous from the chunk base; leftovers cost an entry per
    // huge page (aligned) or per base page.
    std::vector<std::uint64_t> unit_sizes; // pages per single entry
    for (const Seg &s : segs) {
        Vpn v = s.vpn;
        std::uint64_t left = s.pages;
        while (left > 0) {
            const Vpn chunk_end = alignDown(v, d) + d;
            const std::uint64_t in_chunk =
                std::min<std::uint64_t>(left, chunk_end - v);
            if (isAligned(v, d) && in_chunk == d) {
                unit_sizes.push_back(d); // full anchor entry
            } else {
                // Partial chunk: cover with huge/base entries.
                Vpn p = v;
                std::uint64_t rem = in_chunk;
                while (rem > 0) {
                    const std::uint64_t huge = pagesInOrder(kHugeOrder);
                    if (isAligned(p, huge) && rem >= huge &&
                        d >= huge) {
                        unit_sizes.push_back(huge);
                        p += huge;
                        rem -= huge;
                    } else {
                        // Batch the run of base pages to the next huge
                        // boundary as individual entries.
                        std::uint64_t step = std::min(
                            rem, alignDown(p, huge) + huge - p);
                        for (std::uint64_t i = 0; i < step; ++i)
                            unit_sizes.push_back(1);
                        p += step;
                        rem -= step;
                    }
                }
            }
            v += in_chunk;
            left -= in_chunk;
        }
    }
    std::sort(unit_sizes.begin(), unit_sizes.end(), std::greater<>());
    const std::uint64_t target = (total_pages * 99 + 99) / 100;
    std::uint64_t acc = 0, entries = 0;
    for (std::uint64_t sz : unit_sizes) {
        if (acc >= target)
            break;
        acc += sz;
        ++entries;
    }
    return entries;
}

} // namespace

std::uint64_t
vhcEntriesFor99(const std::vector<Seg> &segs)
{
    std::uint64_t total = 0;
    for (const Seg &s : segs)
        total += s.pages;
    if (total == 0)
        return 0;

    // Candidate anchor distances: 2 MiB (512 pages) up to 4 GiB.
    std::uint64_t best = ~std::uint64_t{0};
    for (std::uint64_t d = pagesInOrder(kHugeOrder); d <= (1ull << 20);
         d <<= 1) {
        best = std::min(best, vhcEntriesAt(segs, d, total));
    }
    return best;
}

void
RangeTlb::collectMetrics(obs::MetricSink &sink) const
{
    sink.counter("lookups", stats_.lookups);
    sink.counter("hits", stats_.hits);
    sink.counter("refills", stats_.refills);
    sink.counter("table_misses", stats_.tableMisses);
}

} // namespace contig
