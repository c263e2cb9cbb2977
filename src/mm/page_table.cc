#include "mm/page_table.hh"

#include <algorithm>
#include <array>

#include "base/align.hh"
#include "base/logging.hh"

namespace contig
{

namespace
{

/** Synthetic node frames live far beyond any real zone. */
constexpr Pfn kSyntheticBase = Pfn{1} << 52;

/*
 * Every slot is one 64-bit word: 0 is an empty slot, a word with
 * kPresent clear is the owned child Node*, and a word with kPresent
 * set is an x86-style leaf PTE (flag bits low, the pfn from bit 12).
 */
constexpr std::uint64_t kPresent = 1u << 0;
constexpr std::uint64_t kHuge = 1u << 1;
constexpr std::uint64_t kWritable = 1u << 2;
constexpr std::uint64_t kCow = 1u << 3;
constexpr std::uint64_t kContig = 1u << 4;
constexpr unsigned kPfnShift = 12;
static_assert(kMaxLeafPfn == ~std::uint64_t{0} >> kPfnShift);

bool isLeaf(std::uint64_t slot) { return slot & kPresent; }
bool isChild(std::uint64_t slot) { return slot != 0 && !isLeaf(slot); }

std::uint64_t
encodeLeaf(Pfn pfn, unsigned order, bool writable, bool cow)
{
    contig_assert(pfn <= kMaxLeafPfn, "pfn %llu does not fit a PTE",
                  static_cast<unsigned long long>(pfn));
    return (pfn << kPfnShift) | kPresent |
           (order == kHugeOrder ? kHuge : 0) | (writable ? kWritable : 0) |
           (cow ? kCow : 0);
}

Mapping
decodeLeaf(std::uint64_t slot)
{
    return Mapping{slot >> kPfnShift, (slot & kHuge) ? kHugeOrder : 0u,
                   (slot & kWritable) != 0, (slot & kCow) != 0,
                   (slot & kContig) != 0};
}

} // namespace

/** One radix node: a 4 KiB array of slot words behind its header. */
struct PageTable::Node
{
    Node(unsigned lvl, Pfn frame) : level(lvl), frame(frame) {}

    static Node *child(std::uint64_t slot)
    { return reinterpret_cast<Node *>(slot); }
    static std::uint64_t
    link(Node *node)
    {
        static_assert(alignof(Node) > kPresent,
                      "a child pointer must keep the present bit clear");
        return reinterpret_cast<std::uintptr_t>(node);
    }

    unsigned level;
    Pfn frame;
    std::array<std::uint64_t, kPtFanout> slots{};
};

PageTable::PageTable(NodeAlloc node_alloc, NodeFree node_free,
                     unsigned levels)
    : nodeAlloc_(std::move(node_alloc)), nodeFree_(std::move(node_free)),
      levels_(levels), syntheticNext_(kSyntheticBase)
{
    contig_assert(levels == 4 || levels == 5,
                  "only 4- and 5-level radix tables are supported");
    root_ = new Node(levels_, allocNodeFrame());
}

PageTable::~PageTable()
{
    freeNodes(root_);
}

void
PageTable::freeNodes(Node *node)
{
    for (std::uint64_t slot : node->slots) {
        if (isChild(slot))
            freeNodes(Node::child(slot));
    }
    ++nodeFrees_;
    if (nodeFree_ && node->frame < kSyntheticBase)
        nodeFree_(node->frame);
    delete node;
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
    std::uint64_t &slot = node->slots[idx];
    contig_assert(!isLeaf(slot),
                  "page-table slot already holds a leaf (level %u)",
                  node->level);
    if (slot == 0)
        slot = Node::link(new Node(node->level - 1, allocNodeFrame()));
    return Node::child(slot);
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

    Node *node = root_;
    const unsigned leaf_level = (order == kHugeOrder) ? 2 : 1;
    while (node->level > leaf_level)
        node = ensureChild(node, indexAt(vpn, node->level));

    std::uint64_t &slot = node->slots[indexAt(vpn, node->level)];
    if (isChild(slot)) {
        // A huge leaf may replace a child table only once the child is
        // completely empty (e.g. after promotion unmapped its 4 KiB
        // leaves).
        Node *child = Node::child(slot);
        for (std::uint64_t s : child->slots)
            contig_assert(s == 0,
                          "huge mapping over live 4 KiB translations");
        freeNodes(child);
        slot = 0;
    }
    installLeaf(slot, vpn, pfn, order, writable, cow);
}

void
PageTable::installLeaf(std::uint64_t &slot, Vpn vpn, Pfn pfn,
                       unsigned order, bool writable, bool cow)
{
    contig_assert(slot == 0,
                  "mapping over an existing translation (vpn %llu)",
                  static_cast<unsigned long long>(vpn));
    slot = encodeLeaf(pfn, order, writable, cow);
    ++stats_.maps;
    if (order == kHugeOrder)
        ++stats_.mappedHugePages;
    else
        ++stats_.mappedBasePages;
    bumpGeneration();
    if (updateHook_)
        updateHook_(vpn, decodeLeaf(slot), true);
}

std::uint64_t *
PageTable::findLeafSlot(Vpn vpn) const
{
    Node *node = root_;
    while (true) {
        std::uint64_t &slot = node->slots[indexAt(vpn, node->level)];
        if (isLeaf(slot))
            return &slot;
        if (slot == 0)
            return nullptr;
        node = Node::child(slot);
    }
}

Mapping
PageTable::unmap(Vpn vpn, unsigned order)
{
    std::uint64_t *slot = findLeafSlot(vpn);
    contig_assert(slot, "unmap of unmapped vpn");
    const Mapping old = decodeLeaf(*slot);
    contig_assert(old.order == order,
                  "unmap order mismatch (have %u want %u)", old.order,
                  order);
    *slot = 0;
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
    const std::uint64_t *slot = findLeafSlot(vpn);
    if (!slot)
        return std::nullopt;
    return decodeLeaf(*slot);
}

void
PageTable::walk(Vpn vpn, WalkTrace &trace) const
{
    trace.nodeFrames.clear();
    trace.hit = false;
    trace.mapping = Mapping{};

    const Node *node = root_;
    while (true) {
        trace.nodeFrames.push_back(node->frame);
        const std::uint64_t slot = node->slots[indexAt(vpn, node->level)];
        if (isLeaf(slot)) {
            trace.hit = true;
            trace.mapping = decodeLeaf(slot);
            return;
        }
        if (slot == 0)
            return;
        node = Node::child(slot);
    }
}

void
PageTable::setContigBit(Vpn vpn, bool value)
{
    std::uint64_t *slot = findLeafSlot(vpn);
    contig_assert(slot, "setContigBit on unmapped vpn");
    *slot = value ? *slot | kContig : *slot & ~kContig;
    bumpGeneration();
    if (updateHook_) {
        const Mapping leaf = decodeLeaf(*slot);
        updateHook_(vpn & ~(pagesInOrder(leaf.order) - 1), leaf, true);
    }
}

void
PageTable::setWritable(Vpn vpn, bool writable, bool cow)
{
    std::uint64_t *slot = findLeafSlot(vpn);
    contig_assert(slot, "setWritable on unmapped vpn");
    *slot = (*slot & ~(kWritable | kCow)) | (writable ? kWritable : 0) |
            (cow ? kCow : 0);
    bumpGeneration();
    if (updateHook_) {
        const Mapping leaf = decodeLeaf(*slot);
        updateHook_(vpn & ~(pagesInOrder(leaf.order) - 1), leaf, true);
    }
}

void
PageTable::forEachLeafIn(
    const Node *node, Vpn base,
    const std::function<void(Vpn, const Mapping &)> &fn) const
{
    const std::uint64_t span = std::uint64_t{1} << (9 * (node->level - 1));
    for (unsigned i = 0; i < kPtFanout; ++i) {
        const std::uint64_t slot = node->slots[i];
        const Vpn child_base = base + i * span;
        if (isLeaf(slot))
            fn(child_base, decodeLeaf(slot));
        else if (slot != 0)
            forEachLeafIn(Node::child(slot), child_base, fn);
    }
}

void
PageTable::forEachLeaf(
    const std::function<void(Vpn, const Mapping &)> &fn) const
{
    forEachLeafIn(root_, 0, fn);
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
        const std::uint64_t slot = node->slots[i];
        if (isLeaf(slot))
            fn(child_base, decodeLeaf(slot));
        else if (slot != 0)
            forEachLeafInRange(Node::child(slot), child_base, start, end,
                               fn);
    }
}

void
PageTable::forEachLeafIn(
    Vpn start, Vpn end,
    const std::function<void(Vpn, const Mapping &)> &fn) const
{
    if (start < end)
        forEachLeafInRange(root_, 0, start, end, fn);
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
        const std::uint64_t slot = node->slots[i];
        if (isLeaf(slot))
            return std::max(start, child_base);
        if (slot != 0) {
            const Vpn hit = findMappedInNode(Node::child(slot), child_base,
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
    return findMappedInNode(root_, 0, start, end);
}

void
PageTable::RunMapper::map(Vpn vpn, Pfn pfn, bool writable, bool cow)
{
    const Vpn block = vpn & ~static_cast<Vpn>(kPtFanout - 1);
    if (!l1_ || block != l1Base_ || nodeFrees_ != pt_.nodeFrees_) {
        Node *node = pt_.root_;
        while (node->level > 1)
            node = pt_.ensureChild(node, indexAt(vpn, node->level));
        l1_ = node;
        l1Base_ = block;
        nodeFrees_ = pt_.nodeFrees_;
    }
    pt_.installLeaf(l1_->slots[indexAt(vpn, 1)], vpn, pfn, 0, writable,
                    cow);
}

Pfn
PageTable::rootFrame() const
{
    return root_->frame;
}

} // namespace contig
