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
 * and padding slots. A set probe is then a single tag-lane search
 * (AVX2 when available, scalar otherwise — identical results either
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
        const Vpn tag = tagOf(vpn);
        const unsigned base = setOf(vpn) * wayStride_;
        const int w = simd::findTag(&tags_[base], cfg_.ways, tag, simd_);
        if (w < 0)
            return false;
        lastUse_[base + w] = ++clock_;
        ++stats_.hits;
        return true;
    }

    /** Probe without statistics or LRU update. */
    bool probe(Vpn vpn) const
    {
        const unsigned base = setOf(vpn) * wayStride_;
        return simd::findTag(&tags_[base], cfg_.ways, tagOf(vpn),
                             simd_) >= 0;
    }

    /** Insert the page covering vpn, evicting LRU if needed. */
    void fill(Vpn vpn)
    {
        ++stats_.fills;
        const Vpn tag = tagOf(vpn);
        const unsigned base = setOf(vpn) * wayStride_;
        const int w = simd::findTag(&tags_[base], cfg_.ways, tag, simd_);
        if (w >= 0) {
            lastUse_[base + w] = ++clock_; // refill of a present entry
            return;
        }
        fillVictim(base, tag);
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
    bool simdEnabled() const { return simd_; }

    unsigned pageOrder() const { return pageOrder_; }
    unsigned entries() const { return cfg_.sets * cfg_.ways; }
    const TlbStats &stats() const { return stats_; }

    /** Report hit/miss counters into a metric sink. */
    void collectMetrics(obs::MetricSink &sink) const;

  private:
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

} // namespace contig

#endif // CONTIG_TLB_TLB_HH
