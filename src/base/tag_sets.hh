/**
 * @file
 * The set-associative LRU tag array behind every translation
 * structure the replay models: the TLB arrays, the walker's
 * paging-structure cache and nested TLB (one set each), and SpOT's
 * prediction table. Callers map their keys to a set index and a tag;
 * the array owns the tag-lane format, the LRU stamps and the victim
 * rule (see DESIGN.md, "Replay data layout").
 *
 * Lanes are stored structure-of-arrays: per set, padLanes(ways)
 * contiguous uint64 tags with simd::kNoTag64 in empty and padding
 * slots, so a way is occupied exactly when its tag is not the
 * sentinel and a set probe is one simd::findTag call. Empty ways of a
 * set are always a suffix: fill() takes the first empty way and only
 * flush() empties ways, all of them at once.
 */

#ifndef CONTIG_BASE_TAG_SETS_HH
#define CONTIG_BASE_TAG_SETS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/simd.hh"

namespace contig
{

class TagSets
{
  public:
    /** `sets` x `ways` empty ways; fatal() on 0 sets or 0 ways. */
    TagSets(unsigned sets, unsigned ways);

    /**
     * The probe state by value: the lanes, the set stride and a copy
     * of the LRU clock. A loop that holds a view keeps the clock in a
     * register and needs no member reload after each lastUse store.
     * commit() stores the clock back; take a fresh view after any
     * other use of the array.
     */
    struct View
    {
        const std::uint64_t *tags;
        std::uint64_t *lastUse;
        unsigned stride;
        std::uint64_t clock;

        /** True when `set` holds `tag`; then `lane` is its lane. */
        bool find(unsigned set, std::uint64_t tag, unsigned &lane) const
        {
            return probe(tags, stride, set, tag, lane);
        }

        /** Mark `lane` most recently used. */
        void touch(unsigned lane) { lastUse[lane] = ++clock; }
    };

    View view() { return {tags_.data(), lastUse_.data(), stride_, clock_}; }
    void commit(const View &v) { clock_ = v.clock; }

    /** True when `set` holds `tag`; then `lane` is its lane. */
    bool find(unsigned set, std::uint64_t tag, unsigned &lane) const
    {
        return probe(tags_.data(), stride_, set, tag, lane);
    }

    /** Mark `lane` most recently used. */
    void touch(unsigned lane) { lastUse_[lane] = ++clock_; }

    /**
     * Make `tag` the most recently used entry of `set`: refresh it if
     * present, else take the first empty way, else evict the way with
     * the strict-minimum lastUse (the lowest way on ties). Returns
     * true when it evicted.
     */
    bool fill(unsigned set, std::uint64_t tag);

    /** Empty every way. lastUse stays: no victim scan reads it. */
    void flush() { std::fill(tags_.begin(), tags_.end(), simd::kNoTag64); }

    /**
     * Lane-level access for callers that scan ways themselves (SpOT's
     * victim rule, the TLB's reference probes): the lane of (set,
     * way), its tag and stamp, and put(), which stores `tag` in
     * `lane` and marks it most recently used.
     */
    unsigned lane(unsigned set, unsigned way) const
    {
        return set * stride_ + way;
    }
    std::uint64_t tag(unsigned lane) const { return tags_[lane]; }
    bool empty(unsigned lane) const { return tags_[lane] == simd::kNoTag64; }
    std::uint64_t lastUse(unsigned lane) const { return lastUse_[lane]; }
    void put(unsigned lane, std::uint64_t tag);

    /** Lanes per set, ways padded to the SIMD stride. */
    unsigned stride() const { return stride_; }
    std::uint64_t clock() const { return clock_; }

  private:
    static bool probe(const std::uint64_t *tags, unsigned stride,
                      unsigned set, std::uint64_t tag, unsigned &lane)
    {
        const unsigned base = set * stride;
        const int w = simd::findTag(tags + base, stride, tag);
        lane = base + static_cast<unsigned>(w);
        return w >= 0;
    }

    unsigned ways_;
    unsigned stride_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t clock_ = 0;
};

} // namespace contig

#endif // CONTIG_BASE_TAG_SETS_HH
