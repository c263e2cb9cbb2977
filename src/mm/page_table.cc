#include "mm/page_table.hh"

#include <algorithm>

#include "base/align.hh"
#include "base/logging.hh"

namespace contig
{

namespace
{

/** Synthetic node frames live far beyond any real zone. */
constexpr Pfn kSyntheticBase = Pfn{1} << 52;

} // namespace

PageTable::PageTable(NodeAlloc node_alloc, NodeFree node_free,
                     unsigned levels)
    : nodeAlloc_(std::move(node_alloc)), nodeFree_(std::move(node_free)),
      levels_(levels), syntheticNext_(kSyntheticBase)
{
    contig_assert(levels == 4 || levels == 5,
                  "only 4- and 5-level radix tables are supported");
    root_ = std::make_unique<Node>(levels_, allocNodeFrame());
}

PageTable::~PageTable()
{
    if (root_)
        freeNodes(root_.get());
}

void
PageTable::freeNodes(Node *node)
{
    for (auto &slot : node->slots) {
        if (slot.child)
            freeNodes(slot.child.get());
    }
    ++nodeFrees_;
    if (nodeFree_ && node->frame < kSyntheticBase)
        nodeFree_(node->frame);
}

Pfn
PageTable::allocNodeFrame()
{
    ++stats_.nodesAllocated;
    if (nodeAlloc_)
        return nodeAlloc_();
    return syntheticNext_++;
}

unsigned
PageTable::indexAt(Vpn vpn, unsigned level)
{
    // level 4 uses the top 9 bits of the 36-bit vpn, level 1 the low 9.
    return (vpn >> (9 * (level - 1))) & (kPtFanout - 1);
}

PageTable::Node *
PageTable::ensureChild(Node *node, unsigned idx)
{
    Slot &slot = node->slots[idx];
    contig_assert(!slot.present,
                  "page-table slot already holds a leaf (level %u)",
                  node->level);
    if (!slot.child) {
        slot.child =
            std::make_unique<Node>(node->level - 1, allocNodeFrame());
    }
    return slot.child.get();
}

void
PageTable::map(Vpn vpn, Pfn pfn, unsigned order, bool writable, bool cow)
{
    contig_assert(order == 0 || order == kHugeOrder,
                  "unsupported leaf order %u", order);
    contig_assert(isAligned(vpn, pagesInOrder(order)),
                  "vpn not aligned to mapping order");
    contig_assert(isAligned(pfn, pagesInOrder(order)),
                  "pfn not aligned to mapping order");

    Node *node = root_.get();
    const unsigned leaf_level = (order == kHugeOrder) ? 2 : 1;
    while (node->level > leaf_level)
        node = ensureChild(node, indexAt(vpn, node->level));

    Slot &slot = node->slots[indexAt(vpn, node->level)];
    if (slot.child) {
        // A huge leaf may replace a child table only once the child is
        // completely empty (e.g. after promotion unmapped its 4 KiB
        // leaves).
        for (const Slot &s : slot.child->slots)
            contig_assert(!s.present && !s.child,
                          "huge mapping over live 4 KiB translations");
        freeNodes(slot.child.get());
        slot.child.reset();
    }
    contig_assert(!slot.present,
                  "mapping over an existing translation (vpn %llu)",
                  static_cast<unsigned long long>(vpn));
    slot.present = true;
    slot.leaf = Mapping{pfn, order, writable, cow, false};
    ++stats_.maps;
    if (order == kHugeOrder)
        ++stats_.mappedHugePages;
    else
        ++stats_.mappedBasePages;
    bumpGeneration();
    if (updateHook_)
        updateHook_(vpn, slot.leaf, true);
}

PageTable::Slot *
PageTable::findLeafSlot(Vpn vpn) const
{
    const Node *node = root_.get();
    while (true) {
        const Slot &slot = node->slots[indexAt(vpn, node->level)];
        if (slot.present)
            return const_cast<Slot *>(&slot);
        if (!slot.child)
            return nullptr;
        node = slot.child.get();
    }
}

Mapping
PageTable::unmap(Vpn vpn, unsigned order)
{
    Slot *slot = findLeafSlot(vpn);
    contig_assert(slot && slot->present, "unmap of unmapped vpn");
    contig_assert(slot->leaf.order == order,
                  "unmap order mismatch (have %u want %u)",
                  slot->leaf.order, order);
    const Mapping old = slot->leaf;
    slot->present = false;
    slot->leaf = Mapping{};
    ++stats_.unmaps;
    if (order == kHugeOrder)
        --stats_.mappedHugePages;
    else
        --stats_.mappedBasePages;
    bumpGeneration();
    if (updateHook_)
        updateHook_(vpn & ~(pagesInOrder(order) - 1), old, false);
    return old;
}

std::optional<Mapping>
PageTable::lookup(Vpn vpn) const
{
    const Slot *slot = findLeafSlot(vpn);
    if (!slot)
        return std::nullopt;
    return slot->leaf;
}

void
PageTable::walk(Vpn vpn, WalkTrace &trace) const
{
    trace.nodeFrames.clear();
    trace.hit = false;
    trace.mapping = Mapping{};

    const Node *node = root_.get();
    while (true) {
        trace.nodeFrames.push_back(node->frame);
        const Slot &slot = node->slots[indexAt(vpn, node->level)];
        if (slot.present) {
            trace.hit = true;
            trace.mapping = slot.leaf;
            return;
        }
        if (!slot.child)
            return;
        node = slot.child.get();
    }
}

void
PageTable::setContigBit(Vpn vpn, bool value)
{
    Slot *slot = findLeafSlot(vpn);
    contig_assert(slot && slot->present, "setContigBit on unmapped vpn");
    slot->leaf.contigBit = value;
    bumpGeneration();
    if (updateHook_) {
        const Vpn base = vpn & ~(pagesInOrder(slot->leaf.order) - 1);
        updateHook_(base, slot->leaf, true);
    }
}

void
PageTable::setWritable(Vpn vpn, bool writable, bool cow)
{
    Slot *slot = findLeafSlot(vpn);
    contig_assert(slot && slot->present, "setWritable on unmapped vpn");
    slot->leaf.writable = writable;
    slot->leaf.cow = cow;
    bumpGeneration();
    if (updateHook_) {
        const Vpn base = vpn & ~(pagesInOrder(slot->leaf.order) - 1);
        updateHook_(base, slot->leaf, true);
    }
}

void
PageTable::forEachLeafIn(
    const Node *node, Vpn base,
    const std::function<void(Vpn, const Mapping &)> &fn) const
{
    const std::uint64_t span = std::uint64_t{1} << (9 * (node->level - 1));
    for (unsigned i = 0; i < kPtFanout; ++i) {
        const Slot &slot = node->slots[i];
        const Vpn child_base = base + i * span;
        if (slot.present)
            fn(child_base, slot.leaf);
        else if (slot.child)
            forEachLeafIn(slot.child.get(), child_base, fn);
    }
}

void
PageTable::forEachLeaf(
    const std::function<void(Vpn, const Mapping &)> &fn) const
{
    forEachLeafIn(root_.get(), 0, fn);
}

void
PageTable::forEachLeafInRange(
    const Node *node, Vpn base, Vpn start, Vpn end,
    const std::function<void(Vpn, const Mapping &)> &fn) const
{
    const std::uint64_t span = std::uint64_t{1} << (9 * (node->level - 1));
    unsigned i = start > base ? static_cast<unsigned>((start - base) / span)
                              : 0;
    for (; i < kPtFanout; ++i) {
        const Vpn child_base = base + i * span;
        if (child_base >= end)
            return;
        const Slot &slot = node->slots[i];
        if (slot.present)
            fn(child_base, slot.leaf);
        else if (slot.child)
            forEachLeafInRange(slot.child.get(), child_base, start, end, fn);
    }
}

void
PageTable::forEachLeafIn(
    Vpn start, Vpn end,
    const std::function<void(Vpn, const Mapping &)> &fn) const
{
    if (start < end)
        forEachLeafInRange(root_.get(), 0, start, end, fn);
}

Vpn
PageTable::findMappedInNode(const Node *node, Vpn base, Vpn start,
                            Vpn end) const
{
    const std::uint64_t span = std::uint64_t{1} << (9 * (node->level - 1));
    unsigned i = start > base ? static_cast<unsigned>((start - base) / span)
                              : 0;
    for (; i < kPtFanout; ++i) {
        const Vpn child_base = base + i * span;
        if (child_base >= end)
            break;
        const Slot &slot = node->slots[i];
        if (slot.present)
            return std::max(start, child_base);
        if (slot.child) {
            const Vpn hit = findMappedInNode(slot.child.get(), child_base,
                                             start, end);
            if (hit < end)
                return hit;
        }
    }
    return end;
}

Vpn
PageTable::findMappedIn(Vpn start, Vpn end) const
{
    if (start >= end)
        return end;
    return findMappedInNode(root_.get(), 0, start, end);
}

void
PageTable::RunMapper::map(Vpn vpn, Pfn pfn, bool writable, bool cow)
{
    const Vpn block = vpn & ~static_cast<Vpn>(kPtFanout - 1);
    if (!l1_ || block != l1Base_ || nodeFrees_ != pt_.nodeFrees_) {
        Node *node = pt_.root_.get();
        while (node->level > 1)
            node = pt_.ensureChild(node, indexAt(vpn, node->level));
        l1_ = node;
        l1Base_ = block;
        nodeFrees_ = pt_.nodeFrees_;
    }
    Slot &slot = l1_->slots[indexAt(vpn, 1)];
    contig_assert(!slot.present,
                  "mapping over an existing translation (vpn %llu)",
                  static_cast<unsigned long long>(vpn));
    slot.present = true;
    slot.leaf = Mapping{pfn, 0, writable, cow, false};
    ++pt_.stats_.maps;
    ++pt_.stats_.mappedBasePages;
    pt_.bumpGeneration();
    if (pt_.updateHook_)
        pt_.updateHook_(vpn, slot.leaf, true);
}

Pfn
PageTable::rootFrame() const
{
    return root_->frame;
}

} // namespace contig
