#include "phys/zone.hh"
#include "base/serialize.hh"

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
        // all scaled by the config multiplier and floored at
        // kMinWatermarkPages so tiny test zones still have a band.
        const auto scaled = [&](std::uint64_t pages) {
            const auto v =
                static_cast<std::uint64_t>(pages * cfg.watermarkScale);
            return std::max<std::uint64_t>(v, kMinWatermarkPages);
        };
        wm_.min = scaled(n_frames / 256);
        wm_.low = scaled(n_frames / 256 + n_frames / 512);
        wm_.high = scaled(n_frames / 128);
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
    if (f.lruPrev != kInvalidPfn)
        frames_[f.lruPrev].lruNext = f.lruNext;
    else
        lru.head = f.lruNext;
    if (f.lruNext != kInvalidPfn)
        frames_[f.lruNext].lruPrev = f.lruPrev;
    else
        lru.tail = f.lruPrev;
    lru.pages -= pagesInOrder(f.lruOrder);
    f.lruNext = kInvalidPfn;
    f.lruPrev = kInvalidPfn;
    f.lruList = Frame::LruList::None;
}

void
Zone::lruLink(Frame::LruList list, Pfn head, unsigned order, bool at_tail)
{
    Frame &f = frames_[head];
    Lru &lru = lruOf(list);
    f.lruOrder = static_cast<std::uint8_t>(order);
    f.lruList = list;
    if (at_tail) {
        f.lruNext = kInvalidPfn;
        f.lruPrev = lru.tail;
        if (lru.tail != kInvalidPfn)
            frames_[lru.tail].lruNext = head;
        lru.tail = head;
        if (lru.head == kInvalidPfn)
            lru.head = head;
    } else {
        f.lruPrev = kInvalidPfn;
        f.lruNext = lru.head;
        if (lru.head != kInvalidPfn)
            frames_[lru.head].lruPrev = head;
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

void
Zone::saveState(Serializer &s) const
{
    const std::size_t sec = s.beginSection(sectionTag('Z', 'O', 'N', 'E'));
    s.u32(node_);
    buddy_.saveState(s);
    s.endSection(sec);
}

} // namespace contig
