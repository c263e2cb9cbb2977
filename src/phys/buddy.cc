#include "phys/buddy.hh"

#include <bit>

#include "base/align.hh"
#include "base/rng.hh"
#include "obs/metrics.hh"

namespace contig
{

namespace
{

/** Frames per occupancy-bitmap word, as an order. */
constexpr unsigned kWordOrder = 6;

/**
 * Call fn(word, mask) for each bitmap word covering the block of
 * 2^order frames at bit `off`, with `mask` selecting the block's bits
 * in that word; stop early when fn returns false. Blocks are
 * order-aligned, so one smaller than a word sits inside one word.
 */
template <typename Words, typename Fn>
bool
forBlockWords(Words &words, std::uint64_t off, unsigned order, Fn fn)
{
    if (order < kWordOrder) {
        const std::uint64_t bits = pagesInOrder(order);
        const std::uint64_t mask = ((std::uint64_t{1} << bits) - 1)
                                   << (off % 64);
        return fn(words[off / 64], mask);
    }
    const std::uint64_t first = off / 64;
    const std::uint64_t last = first + pagesInOrder(order - kWordOrder);
    for (std::uint64_t w = first; w < last; ++w)
        if (!fn(words[w], ~std::uint64_t{0}))
            return false;
    return true;
}

} // namespace

BuddyAllocator::BuddyAllocator(FrameArray &frames, Pfn base_pfn,
                               std::uint64_t n_frames, unsigned max_order,
                               bool sorted_top,
                               std::uint64_t scramble_seed)
    : frames_(frames), basePfn_(base_pfn), nFrames_(n_frames),
      maxOrder_(max_order), sortedTop_(sorted_top),
      lists_(max_order + 1), inUse_((n_frames + 63) / 64)
{
    const std::uint64_t top_pages = pagesInOrder(maxOrder_);
    contig_assert(isAligned(basePfn_, top_pages),
                  "zone base must be top-order aligned");
    contig_assert(n_frames % top_pages == 0,
                  "zone size must be a multiple of the top-order block");
    contig_assert(base_pfn + n_frames <= frames_.size(),
                  "zone exceeds mem_map");

    // Seed the allocator with top-order blocks. A zero-filled mem_map
    // and a clear bitmap already read as free, so only the block heads
    // are written, by the list inserts below.
    //
    // The seeding order: ascending by default (head insertion
    // back-to-front yields an ascending list), or shuffled to model an
    // aged machine's list churn.
    std::vector<Pfn> order;
    order.reserve(n_frames / top_pages);
    for (std::uint64_t off = n_frames; off > 0; off -= top_pages)
        order.push_back(base_pfn + off - top_pages);
    if (scramble_seed != 0 && !sorted_top) {
        Rng rng(scramble_seed ^ base_pfn);
        rng.shuffle(order);
    }
    FreeList &top = lists_[maxOrder_];
    for (Pfn pfn : order) {
        insertHead(top, pfn, maxOrder_);
        ++top.count;
        if (onTopInsert_)
            onTopInsert_(pfn);
    }
    freePages_ = n_frames;
}

void
BuddyAllocator::setTopListHooks(TopListHook on_insert, TopListHook on_remove)
{
    onTopInsert_ = std::move(on_insert);
    onTopRemove_ = std::move(on_remove);
    // Report the already-seeded top blocks to the new subscriber.
    if (onTopInsert_)
        forEachFreeBlock(maxOrder_, onTopInsert_);
}

bool
BuddyAllocator::contains(Pfn pfn, unsigned order) const
{
    return pfn >= basePfn_ &&
           pfn + pagesInOrder(order) <= basePfn_ + nFrames_;
}

Pfn
BuddyAllocator::buddyOf(Pfn pfn, unsigned order) const
{
    // Buddy pairs are computed relative to the zone base so zones need
    // not start at PFN 0.
    return basePfn_ + ((pfn - basePfn_) ^ pagesInOrder(order));
}

void
BuddyAllocator::markAllocated(Pfn pfn, unsigned order)
{
    forBlockWords(inUse_, pfn - basePfn_, order,
                  [](std::uint64_t &w, std::uint64_t mask) {
                      w |= mask;
                      return true;
                  });
}

void
BuddyAllocator::markFree(Pfn pfn, unsigned order)
{
    forBlockWords(inUse_, pfn - basePfn_, order,
                  [](std::uint64_t &w, std::uint64_t mask) {
                      w &= ~mask;
                      return true;
                  });
}

bool
BuddyAllocator::blockIs(Pfn pfn, unsigned order, bool in_use) const
{
    return forBlockWords(inUse_, pfn - basePfn_, order,
                         [&](std::uint64_t w, std::uint64_t mask) {
                             return (w & mask) == (in_use ? mask : 0);
                         });
}

Frame &
BuddyAllocator::markFreeHead(Pfn pfn, unsigned order)
{
    Frame &f = frames_[pfn];
    // Often the first touch of this mem_map page (a fresh machine's
    // top-order heads, the upper halves of a split).
    f.order = static_cast<std::uint8_t>(order);
    afterFirstStore();
    // The link pair is shared with the LRU: a listed head must have
    // left its LRU list (ReclaimEngine::onFree) before it is freed.
    contig_assert(f.lruList == Frame::LruList::None,
                  "free-list insert of LRU-listed pfn %llu",
                  static_cast<unsigned long long>(pfn));
    f.freeHead = true;
    return f;
}

void
BuddyAllocator::insertHead(FreeList &list, Pfn pfn, unsigned order)
{
    Frame &f = markFreeHead(pfn, order);
    f.prev = kInvalidPfn;
    f.next = list.head;
    if (list.head != kInvalidPfn)
        frames_[list.head].prev = pfn;
    list.head = pfn;
}

void
BuddyAllocator::insertSorted(FreeList &list, Pfn pfn, unsigned order)
{
    Frame &f = markFreeHead(pfn, order);

    // Fast path via neighbour computation (the paper's trick): if the
    // physically adjacent same-order block is free and listed, splice
    // next to it without scanning.
    const std::uint64_t n = pagesInOrder(order);
    if (pfn >= basePfn_ + n) {
        Pfn left = pfn - n;
        const Frame &lf = frames_[left];
        if (lf.freeHead && lf.order == order) {
            f.prev = left;
            f.next = lf.next;
            if (lf.next != kInvalidPfn)
                frames_[lf.next].prev = pfn;
            frames_[left].next = pfn;
            return;
        }
    }
    if (contains(pfn + n, order)) {
        Pfn right = pfn + n;
        const Frame &rf = frames_[right];
        if (rf.freeHead && rf.order == order) {
            f.next = right;
            f.prev = rf.prev;
            if (rf.prev != kInvalidPfn)
                frames_[rf.prev].next = pfn;
            else
                list.head = pfn;
            frames_[right].prev = pfn;
            return;
        }
    }

    // Slow path: linear scan for the insertion point.
    Pfn prev = kInvalidPfn;
    Pfn cur = list.head;
    while (cur != kInvalidPfn && cur < pfn) {
        prev = cur;
        cur = frames_[cur].next;
    }
    f.prev = prev;
    f.next = cur;
    if (prev != kInvalidPfn)
        frames_[prev].next = pfn;
    else
        list.head = pfn;
    if (cur != kInvalidPfn)
        frames_[cur].prev = pfn;
}

void
BuddyAllocator::pushBlock(Pfn pfn, unsigned order)
{
    FreeList &list = lists_[order];
    if (order == maxOrder_ && sortedTop_)
        insertSorted(list, pfn, order);
    else
        insertHead(list, pfn, order);
    ++list.count;
    if (order == maxOrder_ && onTopInsert_)
        onTopInsert_(pfn);
}

void
BuddyAllocator::removeBlock(Pfn pfn, unsigned order)
{
    FreeList &list = lists_[order];
    Frame &f = frames_[pfn];
    contig_assert(f.freeHead && f.order == order,
                  "removeBlock on a non-listed block");
    if (f.prev != kInvalidPfn)
        frames_[f.prev].next = f.next;
    else
        list.head = f.next;
    if (f.next != kInvalidPfn)
        frames_[f.next].prev = f.prev;
    f.freeHead = false;
    f.next = kInvalidPfn;
    f.prev = kInvalidPfn;
    --list.count;
    if (order == maxOrder_ && onTopRemove_)
        onTopRemove_(pfn);
}

Pfn
BuddyAllocator::popBlock(unsigned order)
{
    FreeList &list = lists_[order];
    contig_assert(list.head != kInvalidPfn, "popBlock on empty list");
    Pfn pfn = list.head;
    removeBlock(pfn, order);
    return pfn;
}

std::optional<Pfn>
BuddyAllocator::alloc(unsigned order)
{
    contig_assert(order <= maxOrder_, "order %u beyond maxOrder", order);
    ++stats_.allocCalls;

    unsigned o = order;
    while (o <= maxOrder_ && lists_[o].head == kInvalidPfn)
        ++o;
    if (o > maxOrder_)
        return std::nullopt;

    Pfn pfn = popBlock(o);
    // Split down to the requested order, returning the upper halves.
    while (o > order) {
        --o;
        ++stats_.splits;
        pushBlock(pfn + pagesInOrder(o), o);
    }
    markAllocated(pfn, order);
    freePages_ -= pagesInOrder(order);
    return pfn;
}

bool
BuddyAllocator::allocSpecific(Pfn pfn, unsigned order)
{
    ++stats_.allocSpecificCalls;
    contig_assert(order <= maxOrder_, "order %u beyond maxOrder", order);
    contig_assert(isAligned(pfn - basePfn_, pagesInOrder(order)),
                  "allocSpecific target must be order-aligned");
    if (!contains(pfn, order)) {
        ++stats_.allocSpecificFailures;
        return false;
    }

    auto enclosing = enclosingFreeBlock(pfn);
    if (!enclosing || enclosing->second < order ||
        enclosing->first + pagesInOrder(enclosing->second) <
            pfn + pagesInOrder(order)) {
        ++stats_.allocSpecificFailures;
        return false;
    }

    auto [head, head_order] = *enclosing;
    removeBlock(head, head_order);

    // Split towards the target, keeping only the halves that do not
    // contain it (standard buddy split, as the default routine would).
    unsigned o = head_order;
    while (o > order) {
        --o;
        ++stats_.splits;
        Pfn lower = head;
        Pfn upper = head + pagesInOrder(o);
        if (pfn >= upper) {
            pushBlock(lower, o);
            head = upper;
        } else {
            pushBlock(upper, o);
        }
    }
    contig_assert(head == pfn, "allocSpecific split drifted off target");
    markAllocated(pfn, order);
    freePages_ -= pagesInOrder(order);
    return true;
}

void
BuddyAllocator::free(Pfn pfn, unsigned order)
{
    ++stats_.freeCalls;
    contig_assert(order <= maxOrder_, "order %u beyond maxOrder", order);
    contig_assert(contains(pfn, order), "free outside zone");
    contig_assert(isAligned(pfn - basePfn_, pagesInOrder(order)),
                  "free of unaligned block");
    // Every frame of the block must still be allocated: freeing a block
    // one of whose pieces is already free would corrupt the lists.
    contig_assert(blockIs(pfn, order, true),
                  "double free in block of pfn %llu order %u",
                  static_cast<unsigned long long>(pfn), order);
    markFree(pfn, order);

    // Coalesce with free buddies as far as possible.
    unsigned o = order;
    Pfn cur = pfn;
    while (o < maxOrder_) {
        Pfn buddy = buddyOf(cur, o);
        if (!contains(buddy, o))
            break;
        const Frame &bf = frames_[buddy];
        if (!(bf.freeHead && bf.order == o))
            break;
        removeBlock(buddy, o);
        ++stats_.merges;
        cur = std::min(cur, buddy);
        ++o;
    }
    pushBlock(cur, o);
    freePages_ += pagesInOrder(order);
}

bool
BuddyAllocator::isFreePage(Pfn pfn) const
{
    // Occupancy probe (paper §III-C): allocSpecific() still checks
    // that the whole block is free before carving it out.
    return contains(pfn, 0) && !inUse(pfn);
}

std::optional<std::pair<Pfn, unsigned>>
BuddyAllocator::enclosingFreeBlock(Pfn pfn) const
{
    if (!isFreePage(pfn))
        return std::nullopt;
    // Free blocks are order-aligned, so the head of the enclosing block
    // must be an alignment ancestor of pfn.
    for (unsigned o = 0; o <= maxOrder_; ++o) {
        Pfn cand = basePfn_ + alignDown(pfn - basePfn_, pagesInOrder(o));
        const Frame &f = frames_[cand];
        if (f.freeHead && f.order >= o &&
            pfn < cand + pagesInOrder(f.order)) {
            return std::make_pair(cand, static_cast<unsigned>(f.order));
        }
    }
    return std::nullopt;
}

void
BuddyAllocator::forEachFreeBlock(unsigned order,
                                 const std::function<void(Pfn)> &fn) const
{
    for (Pfn cur = lists_[order].head; cur != kInvalidPfn;
         cur = frames_[cur].next) {
        fn(cur);
    }
}

std::uint64_t
BuddyAllocator::freeBlocks(unsigned order) const
{
    contig_assert(order <= maxOrder_, "order out of range");
    return lists_[order].count;
}

void
BuddyAllocator::shuffleFreeLists(std::uint64_t seed)
{
    Rng rng(seed);
    // Relink one list in the shuffled order.
    auto shuffle_one = [&](FreeList &list) {
        std::vector<Pfn> blocks;
        for (Pfn cur = list.head; cur != kInvalidPfn;
             cur = frames_[cur].next) {
            blocks.push_back(cur);
        }
        if (blocks.size() < 2)
            return;
        rng.shuffle(blocks);
        list.head = kInvalidPfn;
        for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
            Frame &f = frames_[*it];
            f.prev = kInvalidPfn;
            f.next = list.head;
            if (list.head != kInvalidPfn)
                frames_[list.head].prev = *it;
            list.head = *it;
        }
    };
    for (unsigned o = 0; o <= maxOrder_; ++o) {
        if (o == maxOrder_ && sortedTop_)
            continue;
        shuffle_one(lists_[o]);
    }
}

bool
BuddyAllocator::checkInvariants() const
{
    std::uint64_t free_pages = 0;
    // Check one linked list: integrity, alignment, free flags,
    // coalescing, its stored count and (sorted top) ascending order.
    auto check_list = [&](const FreeList &list, unsigned o) -> bool {
        std::uint64_t count = 0;
        Pfn prev = kInvalidPfn;
        Pfn last = 0;
        bool first = true;
        for (Pfn cur = list.head; cur != kInvalidPfn;
             cur = frames_[cur].next) {
            const Frame &f = frames_[cur];
            // The link pair is the free list's, not an LRU list's.
            if (!f.freeHead || f.order != o || f.prev != prev ||
                f.lruList != Frame::LruList::None)
                return false;
            if (!isAligned(cur - basePfn_, pagesInOrder(o)))
                return false;
            // No page of a listed block may be marked in use.
            if (!blockIs(cur, o, false))
                return false;
            // A listed block's buddy of the same order must not also be
            // free-listed (they should have coalesced)...
            if (o < maxOrder_) {
                Pfn buddy = basePfn_ + ((cur - basePfn_) ^ pagesInOrder(o));
                const Frame &bf = frames_[buddy];
                if (contains(buddy, o) && bf.freeHead && bf.order == o)
                    return false;
            }
            // Sorted-top mode: ascending order.
            if (o == maxOrder_ && sortedTop_) {
                if (!first && cur <= last)
                    return false;
                last = cur;
            }
            free_pages += pagesInOrder(o);
            prev = cur;
            ++count;
            first = false;
        }
        return count == list.count;
    };
    for (unsigned o = 0; o <= maxOrder_; ++o)
        if (!check_list(lists_[o], o))
            return false;
    // Listed pages and set bits partition the zone.
    std::uint64_t used = 0;
    for (std::uint64_t w : inUse_)
        used += std::popcount(w);
    return free_pages == freePages_ && free_pages + used == nFrames_;
}

std::vector<std::uint64_t>
BuddyAllocator::freeBlockCounts() const
{
    std::vector<std::uint64_t> counts(maxOrder_ + 1);
    for (unsigned o = 0; o <= maxOrder_; ++o)
        counts[o] = lists_[o].count;
    return counts;
}

double
BuddyAllocator::unusableFreeIndex(unsigned order) const
{
    if (freePages_ == 0)
        return 0.0;
    std::uint64_t usable = 0;
    for (unsigned o = order; o <= maxOrder_; ++o)
        usable += lists_[o].count * pagesInOrder(o);
    return static_cast<double>(freePages_ - usable) /
           static_cast<double>(freePages_);
}

void
BuddyAllocator::collectMetrics(obs::MetricSink &sink) const
{
    sink.counter("alloc_calls", stats_.allocCalls);
    sink.counter("alloc_specific_calls", stats_.allocSpecificCalls);
    sink.counter("alloc_specific_failures", stats_.allocSpecificFailures);
    sink.counter("split_count", stats_.splits);
    sink.counter("merge_count", stats_.merges);
    sink.counter("free_calls", stats_.freeCalls);
    sink.summary("free_pages", static_cast<double>(freePages_));
    sink.summary("free_top_blocks",
                 static_cast<double>(lists_[maxOrder_].count));
}

} // namespace contig
