/**
 * @file
 * Head-only descriptor state: a claimed block keeps its claim state in
 * its head descriptor, every tail descriptor stays all-zero, and
 * Kernel::claimHead() leads from any frame of the block to its head.
 * Checked after a THP fault-in, an eager pre-allocation and a memory
 * hog with 4 MiB chunks, and after teardown.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "base/rng.hh"
#include "core/experiment.hh"
#include "mm/kernel.hh"
#include "workloads/workloads.hh"

namespace contig
{
namespace
{

constexpr std::uint64_t kMiB = 1ull << 20;

/** Two 128 MiB nodes; one 1 GiB node for eager's top-order blocks. */
KernelConfig
smallConfig(PolicyKind kind)
{
    KernelConfig cfg = kernelConfigFor(kind);
    cfg.phys.numNodes = kind == PolicyKind::Eager ? 1 : 2;
    cfg.phys.bytesPerNode = kind == PolicyKind::Eager ? 1024 * kMiB
                                                       : 128 * kMiB;
    return cfg;
}

/** The descriptor's bytes are all zero, padding included. */
bool
allZero(const Frame &f)
{
    static const unsigned char zero[sizeof(Frame)] = {};
    return std::memcmp(&f, zero, sizeof(Frame)) == 0;
}

/** Every leaf of proc, as (vpn, mapping). */
std::vector<std::pair<Vpn, Mapping>>
leavesOf(const Process &proc)
{
    std::vector<std::pair<Vpn, Mapping>> out;
    proc.pageTable().forEachLeaf(
        [&](Vpn vpn, const Mapping &m) { out.emplace_back(vpn, m); });
    return out;
}

/**
 * Each leaf of proc maps the whole of one claimed block: the head
 * holds the claim, the tails read all-zero, and claimHead() finds the
 * head from every frame.
 */
void
expectHeadOnlyLeaves(const Kernel &k, const Process &proc)
{
    const PhysicalMemory &pm = k.physMem();
    for (const auto &[vpn, m] : leavesOf(proc)) {
        const Frame &head = pm.frame(m.pfn);
        ASSERT_EQ(head.refCount, 1u) << "leaf pfn " << m.pfn;
        ASSERT_EQ(head.mapCount, 1u) << "leaf pfn " << m.pfn;
        ASSERT_EQ(head.claimOrder, m.order) << "leaf pfn " << m.pfn;
        ASSERT_EQ(head.ownerKind, FrameOwner::Anon);
        ASSERT_EQ(head.ownerId, proc.pid());
        ASSERT_EQ(head.ownerVaddr, vpn << kPageShift);
        for (std::uint64_t i = 0; i < pagesInOrder(m.order); ++i) {
            ASSERT_EQ(k.claimHead(m.pfn + i), m.pfn) << "pfn " << m.pfn + i;
            if (i > 0) {
                ASSERT_TRUE(allZero(pm.frame(m.pfn + i)))
                    << "tail " << m.pfn + i;
            }
        }
    }
}

} // namespace

TEST(FrameState, ThpFaultInWritesOnlyHeads)
{
    Kernel k(smallConfig(PolicyKind::Thp), makePolicy(PolicyKind::Thp));
    Process &p = k.createProcess("p");
    Vma &vma = p.mmap(8 * kMiB);
    p.touchRange(vma.start(), 8 * kMiB);
    EXPECT_EQ(k.faultStats().hugeFaults, 4u);
    expectHeadOnlyLeaves(k, p);
    EXPECT_EQ(k.audit(), "");

    // The final putFrame() clears every head: no stale claim survives.
    const auto leaves = leavesOf(p);
    k.exitProcess(p);
    for (const auto &[vpn, m] : leaves) {
        const Frame &head = k.physMem().frame(m.pfn);
        EXPECT_TRUE(allZero(k.physMem().frame(m.pfn + 1)));
        EXPECT_EQ(head.refCount, 0u);
        EXPECT_EQ(head.mapCount, 0u);
        EXPECT_EQ(head.claimOrder, 0u);
        EXPECT_EQ(head.ownerKind, FrameOwner::None);
        EXPECT_EQ(head.ownerId, 0u);
        EXPECT_EQ(head.ownerVaddr, 0u);
        EXPECT_EQ(k.claimHead(m.pfn), kInvalidPfn);
        EXPECT_EQ(k.claimHead(m.pfn + 300), kInvalidPfn);
    }
    EXPECT_EQ(k.audit(), "");
}

TEST(FrameState, EagerVmaWritesOnlyLeafHeads)
{
    Kernel k(smallConfig(PolicyKind::Eager), makePolicy(PolicyKind::Eager));
    Process &p = k.createProcess("p");
    // Not a power of two: huge leaves for the bulk, 4 KiB leaves for
    // the remainder.
    k.mmapAnon(p, 6 * kMiB + 5 * kPageSize);
    std::uint64_t huge = 0, base = 0;
    for (const auto &[vpn, m] : leavesOf(p))
        ++(m.order == kHugeOrder ? huge : base);
    EXPECT_EQ(huge, 3u);
    EXPECT_EQ(base, 5u);
    expectHeadOnlyLeaves(k, p);
    EXPECT_EQ(k.audit(), "");
}

TEST(FrameState, HogChunkPiecesAreHeadsOfTheirOwn)
{
    Kernel k(smallConfig(PolicyKind::Thp), makePolicy(PolicyKind::Thp));
    Rng rng(7);
    Process &hog = hogMemory(k, 0.3, rng);
    expectHeadOnlyLeaves(k, hog);

    // A 4 MiB chunk shows up as two leaves adjacent in both address
    // spaces, the first 4 MiB-aligned; its upper 2 MiB piece is an
    // order-9 head of its own.
    const auto leaves = leavesOf(hog);
    std::uint64_t chunks = 0;
    for (std::size_t i = 0; i + 1 < leaves.size(); ++i) {
        const auto &[vpn, lo] = leaves[i];
        const auto &[next_vpn, hi] = leaves[i + 1];
        if (!isAligned(lo.pfn, pagesInOrder(kHugeOrder + 1)) ||
            hi.pfn != lo.pfn + pagesInOrder(kHugeOrder) ||
            next_vpn != vpn + pagesInOrder(kHugeOrder)) {
            continue;
        }
        ++chunks;
        const Frame &piece = k.physMem().frame(hi.pfn);
        EXPECT_EQ(piece.refCount, 1u);
        EXPECT_EQ(piece.claimOrder, kHugeOrder);
        EXPECT_EQ(piece.ownerVaddr, next_vpn << kPageShift);
        EXPECT_EQ(k.claimHead(hi.pfn + 100), hi.pfn);
        EXPECT_EQ(k.claimHead(lo.pfn + 100), lo.pfn);
    }
    EXPECT_GT(chunks, 0u);
    EXPECT_EQ(k.audit(), "");

    k.exitProcess(hog);
    EXPECT_EQ(k.physMem().freePages(),
              k.physMem().totalFrames() - k.kernelPoolPages());
    EXPECT_EQ(k.audit(), "");
}

} // namespace contig
