/**
 * @file
 * Set-associative TLB with LRU replacement, page-size aware. Models
 * the L1 DTLBs (separate 4 KiB / 2 MiB arrays) and the unified L2
 * STLB of the evaluation machine (Table II), scaled per DESIGN.md so
 * that footprint/TLB-reach stays in the paper's regime.
 *
 * Each array is a TagSets (base/tag_sets.hh) indexed by the
 * order-aligned vpn, and the hot lookup/fill paths are inline here
 * so the replay inner loop pays no call per access.
 */

#ifndef CONTIG_TLB_TLB_HH
#define CONTIG_TLB_TLB_HH

#include <cstdint>

#include "base/tag_sets.hh"
#include "base/types.hh"

namespace contig
{

namespace obs { class MetricSink; }

/** Geometry of one TLB array. */
struct TlbConfig
{
    unsigned sets = 4;
    unsigned ways = 4;
};

/** Hit/miss counters of one TLB array. */
struct TlbStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
};

/**
 * One TLB array holding entries of a single page order (0 or
 * kHugeOrder). Tags are the order-aligned vpn.
 */
class Tlb
{
  public:
    Tlb(const TlbConfig &cfg, unsigned page_order);

    /** True (and LRU updated) iff the page covering vpn is present. */
    bool lookup(Vpn vpn)
    {
        ++stats_.lookups;
        unsigned lane = 0;
        if (!sets_.find(setOf(vpn), tagOf(vpn), lane))
            return false;
        sets_.touch(lane);
        ++stats_.hits;
        return true;
    }

    /** Probe without statistics or LRU update. */
    bool probe(Vpn vpn) const
    {
        unsigned lane = 0;
        return sets_.find(setOf(vpn), tagOf(vpn), lane);
    }

    /** Insert the page covering vpn, evicting LRU if needed. */
    void fill(Vpn vpn)
    {
        ++stats_.fills;
        if (sets_.fill(setOf(vpn), tagOf(vpn)))
            ++stats_.evictions;
    }

    /**
     * Reference-engine variants of lookup()/fill(): out-of-line
     * scalar per-way scans. Kept so XlatEngine::Reference measures
     * (and the golden-equivalence test pins) the historical inner
     * loop against the batched one.
     */
    bool lookupRef(Vpn vpn);
    void fillRef(Vpn vpn);

    void flush() { sets_.flush(); }

    unsigned entries() const { return cfg_.sets * cfg_.ways; }
    const TlbStats &stats() const { return stats_; }

    /** Report hit/miss counters into a metric sink. */
    void collectMetrics(obs::MetricSink &sink) const;

  private:
    // The hierarchy's lane hit path (TlbHierarchy::accessLane) probes
    // views of the tag arrays and keeps the counters in locals.
    friend class TlbHierarchy;

    Vpn tagOf(Vpn vpn) const { return vpn >> pageOrder_; }

    /** Maps an order-aligned tag to its set (power-of-two sets). */
    unsigned setMask() const { return cfg_.sets - 1; }

    unsigned setOf(Vpn vpn) const
    {
        return static_cast<unsigned>(tagOf(vpn) & setMask());
    }

    TlbConfig cfg_;
    unsigned pageOrder_;
    TagSets sets_;
    TlbStats stats_;
};

/** Geometry of the full data-TLB hierarchy. */
struct TlbHierConfig
{
    TlbConfig l1_4k{4, 4};  //!< 16 entries
    TlbConfig l1_2m{2, 4};  //!< 8 entries
    TlbConfig l2{2, 6};     //!< 12 entries, unified
};

/** Where an access was satisfied. */
enum class TlbLevel : std::uint8_t { L1, L2, Miss };

/**
 * Two-level hierarchy: L1 split by page size, unified L2. On an L2
 * miss the caller performs the walk and calls fill().
 */
class TlbHierarchy
{
  public:
    explicit TlbHierarchy(const TlbHierConfig &cfg = {});

    /** Look up the translation for vpn at the given page order. */
    TlbLevel access(Vpn vpn, unsigned order)
    {
        Tlb &l1 = (order == kHugeOrder) ? l1_2m_ : l1_4k_;
        if (l1.lookup(vpn))
            return TlbLevel::L1;
        Tlb &l2 = (order == kHugeOrder) ? l2_2m_ : l2_4k_;
        if (l2.lookup(vpn)) {
            l1.fill(vpn); // promote to L1
            return TlbLevel::L2;
        }
        return TlbLevel::Miss;
    }

    /**
     * The batched replay's hit path: access() the page of every item
     * of [first, last) in order, huge page size first, as the
     * per-access loop does. For each item, with vpn = vpn_of(item):
     *  - bypass(vpn) true: the access skips the TLBs (a DS segment
     *    hit, accounted by the callee) and nothing is probed;
     *  - an L1 hit: on_hit(vpn, TlbLevel::L1);
     *  - otherwise the sequential access(vpn, kHugeOrder), then
     *    access(vpn, 0) after a miss, then on_hit(vpn, TlbLevel::L2)
     *    or, after both miss, on_miss(item, vpn), which walks and
     *    calls fill().
     * L1 hits run on chunk-local state: views of the arrays hold both
     * L1 clocks in locals, and each hit bumps its array's clock once,
     * so the clock deltas give every lookup and hit count. The views
     * are committed before the sequential probe and at the end, so
     * every counter and victim choice equals the per-access loop's.
     * A 4 KiB hit counts only when l1_2m and l2_2m miss and l1_4k
     * hits, exactly the probes that access() makes.
     */
    template <class It, class VpnOf, class Bypass, class OnHit,
              class OnMiss>
    void accessLane(It first, It last, VpnOf &&vpn_of, Bypass &&bypass,
                    OnHit &&on_hit, OnMiss &&on_miss);

    /** Install a translation after a walk (L1 + L2). */
    void fill(Vpn vpn, unsigned order)
    {
        Tlb &l1 = (order == kHugeOrder) ? l1_2m_ : l1_4k_;
        Tlb &l2 = (order == kHugeOrder) ? l2_2m_ : l2_4k_;
        l1.fill(vpn);
        l2.fill(vpn);
    }

    /** Reference-engine access()/fill(): out-of-line scalar probes. */
    TlbLevel accessRef(Vpn vpn, unsigned order);
    void fillRef(Vpn vpn, unsigned order);

    void flush();

    /** Report per-array counters into a metric sink. */
    void collectMetrics(obs::MetricSink &sink) const;

    const Tlb &l1For(unsigned order) const
    { return order == kHugeOrder ? l1_2m_ : l1_4k_; }
    const Tlb &l2_4k() const { return l2_4k_; }
    const Tlb &l2_2m() const { return l2_2m_; }

  private:
    Tlb l1_4k_;
    Tlb l1_2m_;
    // The unified L2 is modelled as two arrays sharing one budget:
    // sets*ways entries for each page size would double the reach, so
    // each array gets exactly half the ways. The constructor rejects
    // an odd way count — it would silently grow the budget.
    Tlb l2_4k_;
    Tlb l2_2m_;
};

template <class It, class VpnOf, class Bypass, class OnHit, class OnMiss>
void
TlbHierarchy::accessLane(It first, It last, VpnOf &&vpn_of,
                         Bypass &&bypass, OnHit &&on_hit, OnMiss &&on_miss)
{
    TagSets::View huge = l1_2m_.sets_.view();
    TagSets::View base = l1_4k_.sets_.view();
    const TagSets::View l2_huge = l2_2m_.sets_.view();
    const unsigned huge_mask = l1_2m_.setMask();
    const unsigned base_mask = l1_4k_.setMask();
    const unsigned l2_huge_mask = l2_2m_.setMask();
    const auto commit = [&] {
        // A 2 MiB hit made one lookup; a 4 KiB hit looked up l1_2m,
        // l2_2m and l1_4k.
        const std::uint64_t huge_hits = huge.clock - l1_2m_.sets_.clock();
        const std::uint64_t base_hits = base.clock - l1_4k_.sets_.clock();
        l1_2m_.sets_.commit(huge);
        l1_4k_.sets_.commit(base);
        l1_2m_.stats_.lookups += huge_hits + base_hits;
        l1_2m_.stats_.hits += huge_hits;
        l2_2m_.stats_.lookups += base_hits;
        l1_4k_.stats_.lookups += base_hits;
        l1_4k_.stats_.hits += base_hits;
    };
    for (; first != last; ++first) {
        const Vpn vpn = vpn_of(*first);
        if (bypass(vpn))
            continue;
        const Vpn huge_tag = vpn >> kHugeOrder;
        unsigned lane = 0;
        unsigned l2_lane = 0;
        if (huge.find(static_cast<unsigned>(huge_tag & huge_mask),
                      huge_tag, lane)) {
            huge.touch(lane);
            on_hit(vpn, TlbLevel::L1);
            continue;
        }
        if (base.find(static_cast<unsigned>(vpn & base_mask), vpn, lane) &&
            !l2_huge.find(static_cast<unsigned>(huge_tag & l2_huge_mask),
                          huge_tag, l2_lane)) {
            base.touch(lane);
            on_hit(vpn, TlbLevel::L1);
            continue;
        }
        commit();
        TlbLevel lvl = access(vpn, kHugeOrder);
        if (lvl == TlbLevel::Miss)
            lvl = access(vpn, 0);
        if (lvl == TlbLevel::Miss)
            on_miss(*first, vpn);
        else
            on_hit(vpn, lvl);
        huge = l1_2m_.sets_.view();
        base = l1_4k_.sets_.view();
    }
    commit();
}

} // namespace contig

#endif // CONTIG_TLB_TLB_HH
