/**
 * @file
 * Software translation memo for the walk path. Repeated L2 misses to
 * the same guest page dominate the replay loop's wall time: every one
 * re-descends the guest radix table and, in virtualized mode, the
 * nested table for each node frame. The memo caches the *pure*
 * traversal results — the guest walk trace keyed by vpn, and the
 * nested walk result keyed by gfn — so a repeat miss within an epoch
 * skips the radix descent entirely.
 *
 * Determinism contract: only the stateless page-table traversals are
 * memoized, never the composed WalkResult. The PSC and nested-TLB
 * models are stateful (LRU), so their hit/skip decisions — and
 * therefore the modelled refs/cycles — are replayed live on every
 * walk over the memoized traces. Modelled statistics are
 * byte-for-byte identical with the memo on or off (verified by
 * tests/tlb/replay_test.cc).
 *
 * Epochs: entries record the owning PageTable's generation() at fill
 * time and are dead the moment it moves. Every leaf mutation (map,
 * unmap, setContigBit, setWritable, RunMapper installs) bumps the
 * generation, so guest *and* nested mapping changes invalidate
 * without any flush broadcast into the walkers.
 */

#ifndef CONTIG_TLB_WALK_MEMO_HH
#define CONTIG_TLB_WALK_MEMO_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mm/page_table.hh"

namespace contig
{

/** Memo hit/miss counters (exported under walker "memo.*"). */
struct WalkMemoStats
{
    std::uint64_t guestHits = 0;
    std::uint64_t guestMisses = 0;
    std::uint64_t nestedHits = 0;
    std::uint64_t nestedMisses = 0;
    /** Valid entries skipped because the table's epoch moved on. */
    std::uint64_t staleDrops = 0;
};

/**
 * Direct-mapped memo of page-table traversals. One instance per
 * Walker, private like its TLBs.
 */
class WalkMemo
{
  public:
    /** Max node frames one traversal can touch (LA57: 5 levels). */
    static constexpr unsigned kMaxNodes = 8;

    explicit WalkMemo(unsigned entries_log2 = 12)
        : mask_((1ull << entries_log2) - 1),
          guest_(1ull << entries_log2), nested_(1ull << entries_log2)
    {}

    /** A memoized guest traversal (valid for the recorded epoch). */
    struct GuestEntry
    {
        std::uint64_t gen = 0;
        Vpn vpn = 0;
        Mapping mapping;
        std::array<Pfn, kMaxNodes> nodeFrames{};
        std::uint8_t nodeCount = 0;
        bool hit = false;
        bool valid = false;
    };

    /** A memoized nested walk (mapping already exact-adjusted). */
    struct NestedEntry
    {
        std::uint64_t gen = 0;
        Pfn gfn = 0;
        Mapping mapping;
        std::uint8_t nodeCount = 0;
        bool hit = false;
        bool valid = false;
    };

    const GuestEntry *
    findGuest(Vpn vpn, std::uint64_t gen)
    {
        GuestEntry &e = guest_[indexOf(vpn)];
        if (!e.valid || e.vpn != vpn) {
            ++stats_.guestMisses;
            return nullptr;
        }
        if (e.gen != gen) {
            ++stats_.staleDrops;
            ++stats_.guestMisses;
            return nullptr;
        }
        ++stats_.guestHits;
        return &e;
    }

    void
    fillGuest(Vpn vpn, std::uint64_t gen, const WalkTrace &trace)
    {
        if (trace.nodeFrames.size() > kMaxNodes)
            return; // never memoize what we cannot replay
        GuestEntry &e = guest_[indexOf(vpn)];
        e.gen = gen;
        e.vpn = vpn;
        e.mapping = trace.mapping;
        e.nodeCount = static_cast<std::uint8_t>(trace.nodeFrames.size());
        for (std::size_t i = 0; i < trace.nodeFrames.size(); ++i)
            e.nodeFrames[i] = trace.nodeFrames[i];
        e.hit = trace.hit;
        e.valid = true;
    }

    const NestedEntry *
    findNested(Pfn gfn, std::uint64_t gen)
    {
        NestedEntry &e = nested_[indexOf(gfn)];
        if (!e.valid || e.gfn != gfn) {
            ++stats_.nestedMisses;
            return nullptr;
        }
        if (e.gen != gen) {
            ++stats_.staleDrops;
            ++stats_.nestedMisses;
            return nullptr;
        }
        ++stats_.nestedHits;
        return &e;
    }

    void
    fillNested(Pfn gfn, std::uint64_t gen, const WalkTrace &trace)
    {
        if (trace.nodeFrames.size() > kMaxNodes)
            return;
        NestedEntry &e = nested_[indexOf(gfn)];
        e.gen = gen;
        e.gfn = gfn;
        e.mapping = trace.mapping;
        e.nodeCount = static_cast<std::uint8_t>(trace.nodeFrames.size());
        e.hit = trace.hit;
        e.valid = true;
    }

    const WalkMemoStats &stats() const { return stats_; }

  private:
    std::uint64_t
    indexOf(std::uint64_t key) const
    {
        // splitmix64 finalizer: adjacent pages must not collide.
        key += 0x9E3779B97F4A7C15ull;
        key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ull;
        key = (key ^ (key >> 27)) * 0x94D049BB133111EBull;
        return (key ^ (key >> 31)) & mask_;
    }

    std::uint64_t mask_;
    std::vector<GuestEntry> guest_;
    std::vector<NestedEntry> nested_;
    WalkMemoStats stats_;
};

} // namespace contig

#endif // CONTIG_TLB_WALK_MEMO_HH
