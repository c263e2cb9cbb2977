/**
 * @file
 * Page-walk cost model. A native walk reads up to 4 page-table
 * nodes; a nested (2-D) walk reads up to 24: each guest node's gPA
 * must itself be translated through the nested table (up to 4 reads)
 * plus the guest node read, and the final data gPA needs one more
 * nested walk.
 *
 * Two hardware caches temper those costs, as on real processors:
 *  - a paging-structure cache (PSC) that skips upper guest levels,
 *  - a nested TLB that caches gPA->hPA translations used inside
 *    walks.
 * The cycle cost of a walk is refs * cyclesPerRef (a flat memory-
 * hierarchy approximation; see DESIGN.md's cost-model notes).
 */

#ifndef CONTIG_TLB_WALKER_HH
#define CONTIG_TLB_WALKER_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "mm/page_table.hh"
#include "tlb/tlb.hh"
#include "tlb/walk_memo.hh"

namespace contig
{

class VirtualMachine;
namespace obs { class MetricSink; }

/** Walker knobs. */
struct WalkerConfig
{
    /** Average cycles per page-table memory reference. */
    Cycles cyclesPerRef = 40;
    /** Paging-structure cache entries (per level). */
    unsigned pscEntries = 16;
    /** Nested TLB entries. */
    unsigned nestedTlbEntries = 16;
    bool pscEnabled = true;
    bool nestedTlbEnabled = true;
    /**
     * Software traversal memo (tlb/walk_memo.hh): caches page-table
     * descents keyed by page + table epoch. Pure wall-clock
     * optimization — modelled refs/cycles/stats are identical on or
     * off, because the stateful PSC / nested-TLB models still run on
     * every walk.
     */
    bool memoEnabled = true;
    unsigned memoEntriesLog2 = 12;
};

/** Result of one modelled walk. */
struct WalkResult
{
    bool hit = false;          //!< translation exists
    Mapping mapping;           //!< final leaf (2-D composed if nested)
    unsigned refs = 0;         //!< memory references performed
    Cycles cycles = 0;         //!< refs * cyclesPerRef
    /** Contiguity bits: guest PTE and (if nested) nested PTE. */
    bool guestContigBit = false;
    bool nestedContigBit = false;
    /** Full 2-D offset (vpn - final pfn), the quantity SpOT tracks. */
    std::int64_t offset = 0;
    /** Upper levels were skipped by a paging-structure-cache hit. */
    bool pscHit = false;
};

/** Aggregate walker statistics. */
struct WalkerStats
{
    std::uint64_t walks = 0;
    std::uint64_t totalRefs = 0;
    std::uint64_t pscHits = 0;
    std::uint64_t nestedTlbHits = 0;
    std::uint64_t nestedTlbLookups = 0;

    double
    avgRefs() const
    {
        return walks ? static_cast<double>(totalRefs) / walks : 0.0;
    }
};

/**
 * Walks a native page table or a (guest, nested) pair. The caller
 * owns the tables; the walker owns only its caches.
 */
class Walker
{
  public:
    /** Native: one page table. */
    Walker(const PageTable &pt, const WalkerConfig &cfg = {});

    /** Virtualized: guest table + the VM providing nested walks. */
    Walker(const PageTable &guest_pt, const VirtualMachine &vm,
           const WalkerConfig &cfg = {});

    /** Perform (and cost) a walk for vpn. */
    WalkResult walk(Vpn vpn);

    bool virtualized() const { return vm_ != nullptr; }

    /** Select the cache-probe kernel; the answer never depends on it. */
    void setSimd(bool simd) { simd_ = simd; }
    bool simdEnabled() const { return simd_; }

    const WalkerStats &stats() const { return stats_; }
    const WalkerConfig &config() const { return cfg_; }
    /** Traversal-memo counters (null when the memo is disabled). */
    const WalkMemoStats *memoStats() const
    { return memo_ ? &memo_->stats() : nullptr; }

    /** Report walk/cache counters into a metric sink. */
    void collectMetrics(obs::MetricSink &sink) const;

    /** Flush the PSC and nested TLB (context switch). */
    void flushCaches();

  private:
    /** Nested translation of one guest frame, with costing. */
    std::optional<Mapping> nestedTranslate(Pfn gfn, unsigned &refs);

    /**
     * The guest traversal feeding one walk: a borrowed view over
     * either a memo entry or the scratch trace.
     */
    struct GuestView
    {
        const Pfn *frames = nullptr;
        unsigned count = 0;
        Mapping mapping;
        bool hit = false;
    };

    GuestView guestTraversal(Vpn vpn);

    /** Nested walk of gfn: (hit, node count, exact mapping). */
    void nestedResolve(Pfn gfn, bool &hit, unsigned &count, Mapping &m);

    /**
     * Fully-associative cache stored structure-of-arrays: the tag
     * lane is padded to the SIMD stride and holds simd::kNoTag64 in
     * invalid/padding slots, so cacheLookup is one tag-lane search.
     * cacheFill keeps the historical ordered scan (first invalid slot
     * wins even when a matching entry sits later) — its victim choice
     * is part of the pinned replacement behaviour.
     */
    struct SoaCache
    {
        explicit SoaCache(unsigned n);

        unsigned entries;
        std::vector<std::uint64_t> tags;
        std::vector<std::uint64_t> lastUse;
        std::vector<std::uint8_t> valid;
    };

    bool cacheLookup(SoaCache &cache, std::uint64_t tag);
    void cacheFill(SoaCache &cache, std::uint64_t tag);

    const PageTable &pt_;
    const VirtualMachine *vm_ = nullptr;
    WalkerConfig cfg_;
    WalkerStats stats_;

    /** PSC: skip-to-L2 entries keyed by vpn >> 18 (L4+L3 covered). */
    SoaCache psc_;
    /** Nested TLB: gfn -> backed, keyed by gfn (4 KiB grain). */
    SoaCache nestedTlb_;
    bool simd_;
    std::uint64_t clock_ = 0;

    /** Traversal memo (null when disabled). */
    std::unique_ptr<WalkMemo> memo_;
    /** Reusable walk traces: no per-walk vector allocations. */
    WalkTrace guestScratch_;
    WalkTrace nestedScratch_;
};

} // namespace contig

#endif // CONTIG_TLB_WALKER_HH
