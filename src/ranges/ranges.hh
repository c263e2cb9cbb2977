/**
 * @file
 * The comparison translation schemes of §IV/§VI-B, emulated the same
 * way the paper does (event counting over extracted mappings):
 *
 *  - vRMM: a fully-associative range TLB over the 2-D contiguous
 *    mappings (ranges). Misses refill from a flat range table; the
 *    paper's model hides the nested range-walk in the background, so
 *    a range-TLB miss costs one regular nested page walk.
 *  - Direct Segments (dual direct mode): a single [base, limit,
 *    offset] 2-D segment covering the primary region; hits bypass
 *    translation entirely.
 *  - vHC (virtualized Hybrid Coalescing): only its *entry count* is
 *    modelled (Table I): anchor entries at a per-process power-of-two
 *    anchor distance, restricted by virtual alignment.
 */

#ifndef CONTIG_RANGES_RANGES_HH
#define CONTIG_RANGES_RANGES_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "contig/analysis.hh"

namespace contig
{

namespace obs { class MetricSink; }

/** vRMM range-TLB configuration (Table II: 32-entry, fully assoc). */
struct RangeTlbConfig
{
    unsigned entries = 32;
};

struct RangeTlbStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t refills = 0;
    std::uint64_t tableMisses = 0; //!< vpn not in any range
};

/**
 * Flat, sorted range table: the emulation stand-in for the nested
 * guest/host range tables (the paper also uses flat arrays, §V).
 */
class RangeTable
{
  public:
    explicit RangeTable(std::vector<Seg> segs);

    /** The range containing vpn, if any (binary search). */
    std::optional<Seg> lookup(Vpn vpn) const;

    std::size_t size() const { return segs_.size(); }

  private:
    std::vector<Seg> segs_; // sorted by vpn
};

/**
 * Fully-associative range TLB with LRU. Driven on the L2-TLB miss
 * path: a hit means the translation was produced from a cached range
 * without a page walk.
 */
class RangeTlb
{
  public:
    RangeTlb(const RangeTlbConfig &cfg, const RangeTable &table);

    /** True iff some cached range covers vpn (hit). Refills on miss. */
    bool access(Vpn vpn);

    const RangeTlbStats &stats() const { return stats_; }

    /** Report lookup/hit/refill counters into a metric sink. */
    void collectMetrics(obs::MetricSink &sink) const;

  private:
    struct Entry
    {
        Seg seg;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    RangeTlbConfig cfg_;
    const RangeTable &table_;
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 0;
    RangeTlbStats stats_;
};

/**
 * Direct Segments dual direct mode: one 2-D segment [base, limit)
 * with a fixed offset. Accesses inside translate in zero time.
 */
class DirectSegment
{
  public:
    DirectSegment(Vpn base, std::uint64_t pages)
        : base_(base), pages_(pages)
    {}

    bool
    contains(Vpn vpn) const
    {
        return vpn >= base_ && vpn < base_ + pages_;
    }

    Vpn base() const { return base_; }
    std::uint64_t pages() const { return pages_; }

  private:
    Vpn base_;
    std::uint64_t pages_;
};

/**
 * The segment of `segs` (n >= 1, sorted by base) that can hold vpn:
 * the last one whose base is <= vpn, or segs[0] when none is, so
 * segmentFor(...).contains(vpn) answers what upper_bound followed by
 * contains() does. Branch-free: the number of halving steps depends
 * on n alone, and each step picks its half with a conditional move.
 */
inline const DirectSegment &
segmentFor(const DirectSegment *segs, std::size_t n, Vpn vpn)
{
    while (n > 1) {
        const std::size_t half = n / 2;
        segs += segs[half].base() <= vpn ? half : 0;
        n -= half;
    }
    return *segs;
}

/**
 * Count the ranges needed to map 99 % of the footprint (Table I's
 * vRMM column): the mappings-for-99 % metric over the segment list.
 */
std::uint64_t rangesFor99(const std::vector<Seg> &segs);

/**
 * Count vHC entries needed to map 99 % of the footprint (Table I's
 * vHC column). For each candidate anchor distance d (power of two,
 * in base pages), an anchor entry covers a d-aligned virtual chunk
 * only if the chunk is physically contiguous from its base; leftover
 * pieces cost one entry per huge page (or per base page below huge
 * granularity). The per-process distance minimizing the entry count
 * is chosen, mirroring vHC's dynamic anchor-distance adjustment.
 */
std::uint64_t vhcEntriesFor99(const std::vector<Seg> &segs);

} // namespace contig

#endif // CONTIG_RANGES_RANGES_HH
