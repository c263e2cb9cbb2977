#include "base/tag_sets.hh"

#include "base/logging.hh"

namespace contig
{

namespace
{

/** The padded lane stride of `ways`; fatal() on 0 sets or 0 ways. */
unsigned
checkedStride(unsigned sets, unsigned ways)
{
    // Geometries come from user configs (TLB, walker cache and SpOT
    // entries): an empty array would probe past its lanes.
    if (sets == 0 || ways == 0)
        fatal("tag array needs at least one set and one way, got %u "
              "sets x %u ways",
              sets, ways);
    return simd::padLanes(ways);
}

} // namespace

TagSets::TagSets(unsigned sets, unsigned ways)
    : ways_(ways), stride_(checkedStride(sets, ways)),
      tags_(sets * stride_, simd::kNoTag64), lastUse_(sets * stride_, 0)
{
}

void
TagSets::put(unsigned lane, std::uint64_t tag)
{
    contig_assert(tag != simd::kNoTag64, "tag collides with the "
                  "empty-lane sentinel");
    tags_[lane] = tag;
    touch(lane);
}

bool
TagSets::fill(unsigned set, std::uint64_t tag)
{
    // The sentinel would "find" an empty way.
    contig_assert(tag != simd::kNoTag64, "tag collides with the "
                  "empty-lane sentinel");
    unsigned lane = 0;
    if (find(set, tag, lane)) {
        touch(lane);
        return false;
    }
    const unsigned base = set * stride_;
    unsigned victim = base;
    for (unsigned i = base; i < base + ways_; ++i) {
        if (empty(i)) {
            put(i, tag);
            return false;
        }
        if (lastUse_[i] < lastUse_[victim])
            victim = i;
    }
    put(victim, tag);
    return true;
}

} // namespace contig
