#include "phys/zone.hh"

namespace contig
{

Zone::Zone(FrameArray &frames, NodeId node, Pfn base_pfn,
           std::uint64_t n_frames, const ZoneConfig &cfg)
    : node_(node),
      frames_(frames),
      contigMap_(pagesInOrder(cfg.maxOrder)),
      buddy_(frames, base_pfn, n_frames, cfg.maxOrder, cfg.sortedTopList,
             cfg.scrambleSeed)
{
    buddy_.setTopListHooks(
        [this](Pfn pfn) { contigMap_.onBlockFree(pfn); },
        [this](Pfn pfn) { contigMap_.onBlockAllocated(pfn); });
    if (cfg.reclaim) {
        // Watermarks derived from zone size (Linux derives min from
        // managed pages; low/high are fixed fractions above it):
        // min = 1/256th of the zone, low = 1.5x min, high = 2x min,
        // all floored at kMinWatermarkPages so tiny test zones still
        // have a band.
        const auto floored = [](std::uint64_t pages) {
            return std::max<std::uint64_t>(pages, kMinWatermarkPages);
        };
        wm_.min = floored(n_frames / 256);
        wm_.low = floored(n_frames / 256 + n_frames / 512);
        wm_.high = floored(n_frames / 128);
    }
}

Log2Histogram
Zone::freeBlockHistogram() const
{
    Log2Histogram hist = contigMap_.clusterSizeHistogram();
    for (unsigned o = 0; o < buddy_.maxOrder(); ++o) {
        buddy_.forEachFreeBlock(o, [&](Pfn) {
            hist.add(pagesInOrder(o), pagesInOrder(o));
        });
    }
    return hist;
}

// --- LRU lists (memory-pressure kernels only) ----------------------------

Zone::Lru &
Zone::lruOf(Frame::LruList list)
{
    return list == Frame::LruList::Active ? active_ : inactive_;
}

const Zone::Lru &
Zone::lruOf(Frame::LruList list) const
{
    return list == Frame::LruList::Active ? active_ : inactive_;
}

void
Zone::lruUnlink(Pfn head)
{
    Frame &f = frames_[head];
    contig_assert(f.lruList != Frame::LruList::None,
                  "lru unlink of unlisted frame %llu",
                  static_cast<unsigned long long>(head));
    Lru &lru = lruOf(f.lruList);
    if (f.prev != kInvalidPfn)
        frames_[f.prev].next = f.next;
    else
        lru.head = f.next;
    if (f.next != kInvalidPfn)
        frames_[f.next].prev = f.prev;
    else
        lru.tail = f.prev;
    lru.pages -= pagesInOrder(f.lruOrder);
    f.next = kInvalidPfn;
    f.prev = kInvalidPfn;
    f.lruList = Frame::LruList::None;
}

void
Zone::lruLink(Frame::LruList list, Pfn head, unsigned order, bool at_tail)
{
    Frame &f = frames_[head];
    // The link pair is shared with the buddy free lists.
    contig_assert(!f.freeHead, "lru insert of free-list head %llu",
                  static_cast<unsigned long long>(head));
    Lru &lru = lruOf(list);
    f.lruOrder = static_cast<std::uint8_t>(order);
    f.lruList = list;
    if (at_tail) {
        f.next = kInvalidPfn;
        f.prev = lru.tail;
        if (lru.tail != kInvalidPfn)
            frames_[lru.tail].next = head;
        lru.tail = head;
        if (lru.head == kInvalidPfn)
            lru.head = head;
    } else {
        f.prev = kInvalidPfn;
        f.next = lru.head;
        if (lru.head != kInvalidPfn)
            frames_[lru.head].prev = head;
        lru.head = head;
        if (lru.tail == kInvalidPfn)
            lru.tail = head;
    }
    lru.pages += pagesInOrder(order);
}

void
Zone::lruInsert(Frame::LruList list, Pfn head, unsigned order)
{
    contig_assert(frames_[head].lruList == Frame::LruList::None,
                  "lru insert of already-listed frame %llu",
                  static_cast<unsigned long long>(head));
    lruLink(list, head, order, false);
}

bool
Zone::lruInsertTail(Frame::LruList list, Pfn head, unsigned order)
{
    if (frames_[head].lruList != Frame::LruList::None)
        return false;
    lruLink(list, head, order, true);
    return true;
}

bool
Zone::lruRequeue(Frame::LruList list, Pfn head, unsigned order)
{
    if (frames_[head].lruList != Frame::LruList::None)
        return false;
    lruLink(list, head, order, false);
    return true;
}

void
Zone::lruRemove(Pfn head)
{
    if (frames_[head].lruList != Frame::LruList::None)
        lruUnlink(head);
}

std::size_t
Zone::lruPopTail(Frame::LruList list, std::size_t n, LruEntry *out)
{
    Lru &lru = lruOf(list);
    std::size_t got = 0;
    while (got < n && lru.tail != kInvalidPfn) {
        const Pfn head = lru.tail;
        const std::uint8_t order = frames_[head].lruOrder;
        lruUnlink(head);
        out[got++] = LruEntry{head, order};
    }
    return got;
}

std::uint64_t
Zone::lruPages(Frame::LruList list) const
{
    return lruOf(list).pages;
}

} // namespace contig
