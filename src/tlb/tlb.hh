/**
 * @file
 * Set-associative TLB with LRU replacement, page-size aware. Models
 * the L1 DTLBs (separate 4 KiB / 2 MiB arrays) and the unified L2
 * STLB of the evaluation machine (Table II), scaled per DESIGN.md so
 * that footprint/TLB-reach stays in the paper's regime.
 *
 * Entries are stored structure-of-arrays (see DESIGN.md, "Replay
 * data layout"): per-set contiguous tag / valid / lastUse lanes, the
 * tag lane padded to the SIMD stride with simd::kNoTag64 in invalid
 * and padding slots. A set probe is then a single inline tag-lane
 * search (SSE2, or scalar under --no-simd — identical results either
 * way), and the hot lookup/fill paths are inline here so the replay
 * inner loop pays no call per access.
 */

#ifndef CONTIG_TLB_TLB_HH
#define CONTIG_TLB_TLB_HH

#include <cstdint>
#include <vector>

#include "base/simd.hh"
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
        if (!lanes().find(tagOf(vpn), simd_, lane))
            return false;
        lastUse_[lane] = ++clock_;
        ++stats_.hits;
        return true;
    }

    /** Probe without statistics or LRU update. */
    bool probe(Vpn vpn) const
    {
        unsigned lane = 0;
        return lanes().find(tagOf(vpn), simd_, lane);
    }

    /** Insert the page covering vpn, evicting LRU if needed. */
    void fill(Vpn vpn)
    {
        ++stats_.fills;
        unsigned lane = 0;
        if (lanes().find(tagOf(vpn), simd_, lane)) {
            lastUse_[lane] = ++clock_; // refill of a present entry
            return;
        }
        fillVictim(setOf(vpn) * wayStride_, tagOf(vpn));
    }

    /**
     * Reference-engine variants of lookup()/fill(): out-of-line,
     * always-scalar scans with the pre-SoA per-way code shape. Kept
     * so XlatEngine::Reference measures (and the golden-equivalence
     * test pins) the historical inner loop against the batched one.
     */
    bool lookupRef(Vpn vpn);
    void fillRef(Vpn vpn);

    void flush();

    /** Select the probe kernel; the answer never depends on it. */
    void setSimd(bool simd) { simd_ = simd; }

    unsigned pageOrder() const { return pageOrder_; }
    unsigned entries() const { return cfg_.sets * cfg_.ways; }
    const TlbStats &stats() const { return stats_; }

    /** Report hit/miss counters into a metric sink. */
    void collectMetrics(obs::MetricSink &sink) const;

  private:
    // The hierarchy's lane hit path (TlbHierarchy::accessLane) probes
    // the lanes and keeps the clock and counters in locals.
    friend class TlbHierarchy;

    /**
     * The probe geometry and tag lanes, by value: a probe loop that
     * holds a copy needs no member reload after each lastUse store.
     */
    struct Lanes
    {
        const std::uint64_t *tags;
        unsigned setMask;
        unsigned stride;

        /**
         * True when `tag`'s set holds it, with its lane index in
         * `lane`. Probes the whole padded set: padding lanes hold
         * simd::kNoTag64, which no tag equals.
         */
        bool find(Vpn tag, bool use_simd, unsigned &lane) const
        {
            const unsigned base =
                static_cast<unsigned>(tag & setMask) * stride;
            const int w =
                simd::findTag(tags + base, stride, tag, use_simd);
            lane = base + static_cast<unsigned>(w);
            return w >= 0;
        }
    };

    Lanes lanes() const { return {tags_.data(), cfg_.sets - 1, wayStride_}; }

    Vpn tagOf(Vpn vpn) const { return vpn >> pageOrder_; }

    unsigned setOf(Vpn vpn) const
    {
        return static_cast<unsigned>(tagOf(vpn) & (cfg_.sets - 1));
    }

    /** Miss path of fill(): pick a victim way and install the tag. */
    void fillVictim(unsigned base, Vpn tag);

    TlbConfig cfg_;
    unsigned pageOrder_;
    // SoA lanes, sets * wayStride_ each; wayStride_ pads ways to the
    // SIMD lane width. Invariant: tags_[i] == simd::kNoTag64 exactly
    // when the slot is invalid or padding, so a tag compare alone
    // answers a probe.
    unsigned wayStride_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> lastUse_;
    bool simd_;
    std::uint64_t clock_ = 0;
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
        ++accesses_;
        Tlb &l1 = (order == kHugeOrder) ? l1_2m_ : l1_4k_;
        if (l1.lookup(vpn))
            return TlbLevel::L1;
        Tlb &l2 = (order == kHugeOrder) ? l2_2m_ : l2_4k_;
        if (l2.lookup(vpn)) {
            l1.fill(vpn); // promote to L1
            return TlbLevel::L2;
        }
        ++l2Misses_;
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
     * L1 hits run on chunk-local state: both L1 clocks live in
     * locals, and each hit bumps its array's clock once, so the clock
     * deltas give every lookup, hit, access and l2_misses count. The
     * locals are written back before the sequential probe and at the
     * end, so every counter and victim choice equals the per-access
     * loop's. A 4 KiB hit counts only when l1_2m and l2_2m miss and
     * l1_4k hits, exactly the probes that access() makes.
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

    /** Select the probe kernel for all four arrays. */
    void setSimd(bool simd);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t l2Misses() const { return l2Misses_; }

    /** Report per-array + hierarchy counters into a metric sink. */
    void collectMetrics(obs::MetricSink &sink) const;

    const Tlb &l1For(unsigned order) const
    { return order == kHugeOrder ? l1_2m_ : l1_4k_; }
    const Tlb &l2_4k() const { return l2_4k_; }
    const Tlb &l2_2m() const { return l2_2m_; }

  private:
    /** accessLane() with the probe kernel fixed for the whole lane. */
    template <bool Simd, class It, class VpnOf, class Bypass, class OnHit,
              class OnMiss>
    void accessLaneWith(It first, It last, VpnOf &vpn_of, Bypass &bypass,
                        OnHit &on_hit, OnMiss &on_miss);

    Tlb l1_4k_;
    Tlb l1_2m_;
    // The unified L2 is modelled as two arrays sharing one budget:
    // sets*ways entries for each page size would double the reach, so
    // each array gets exactly half the ways. The constructor rejects
    // an odd way count — it would silently grow the budget.
    Tlb l2_4k_;
    Tlb l2_2m_;
    std::uint64_t accesses_ = 0;
    std::uint64_t l2Misses_ = 0;
};

template <class It, class VpnOf, class Bypass, class OnHit, class OnMiss>
void
TlbHierarchy::accessLane(It first, It last, VpnOf &&vpn_of,
                         Bypass &&bypass, OnHit &&on_hit, OnMiss &&on_miss)
{
    // All four arrays share one probe kernel (setSimd).
    if (l1_2m_.simd_)
        accessLaneWith<true>(first, last, vpn_of, bypass, on_hit, on_miss);
    else
        accessLaneWith<false>(first, last, vpn_of, bypass, on_hit, on_miss);
}

template <bool Simd, class It, class VpnOf, class Bypass, class OnHit,
          class OnMiss>
void
TlbHierarchy::accessLaneWith(It first, It last, VpnOf &vpn_of,
                             Bypass &bypass, OnHit &on_hit, OnMiss &on_miss)
{
    const Tlb::Lanes huge = l1_2m_.lanes();
    const Tlb::Lanes base = l1_4k_.lanes();
    const Tlb::Lanes l2_huge = l2_2m_.lanes();
    std::uint64_t *const huge_lru = l1_2m_.lastUse_.data();
    std::uint64_t *const base_lru = l1_4k_.lastUse_.data();
    std::uint64_t huge_clock = l1_2m_.clock_;
    std::uint64_t base_clock = l1_4k_.clock_;
    const auto write_back = [&] {
        // A 2 MiB hit made one lookup; a 4 KiB hit made two accesses
        // and looked up l1_2m, l2_2m (one L2 miss) and l1_4k.
        const std::uint64_t huge_hits = huge_clock - l1_2m_.clock_;
        const std::uint64_t base_hits = base_clock - l1_4k_.clock_;
        l1_2m_.clock_ = huge_clock;
        l1_4k_.clock_ = base_clock;
        l1_2m_.stats_.lookups += huge_hits + base_hits;
        l1_2m_.stats_.hits += huge_hits;
        l2_2m_.stats_.lookups += base_hits;
        l1_4k_.stats_.lookups += base_hits;
        l1_4k_.stats_.hits += base_hits;
        accesses_ += huge_hits + 2 * base_hits;
        l2Misses_ += base_hits;
    };
    for (; first != last; ++first) {
        const Vpn vpn = vpn_of(*first);
        if (bypass(vpn))
            continue;
        const Vpn huge_tag = vpn >> kHugeOrder;
        unsigned lane = 0;
        unsigned l2_lane = 0;
        if (huge.find(huge_tag, Simd, lane)) {
            huge_lru[lane] = ++huge_clock;
            on_hit(vpn, TlbLevel::L1);
            continue;
        }
        if (base.find(vpn, Simd, lane) &&
            !l2_huge.find(huge_tag, Simd, l2_lane)) {
            base_lru[lane] = ++base_clock;
            on_hit(vpn, TlbLevel::L1);
            continue;
        }
        write_back();
        TlbLevel lvl = access(vpn, kHugeOrder);
        if (lvl == TlbLevel::Miss)
            lvl = access(vpn, 0);
        if (lvl == TlbLevel::Miss)
            on_miss(*first, vpn);
        else
            on_hit(vpn, lvl);
        huge_clock = l1_2m_.clock_;
        base_clock = l1_4k_.clock_;
    }
    write_back();
}

} // namespace contig

#endif // CONTIG_TLB_TLB_HH
