#include <gtest/gtest.h>

#include "base/rng.hh"
#include "core/config.hh"
#include "mm/kernel.hh"
#include "tlb/translation_sim.hh"

using namespace contig;

namespace
{

struct SimTest : public ::testing::Test
{
    SimTest()
        : kernel(
              [] {
                  KernelConfig cfg;
                  cfg.phys.bytesPerNode = 256ull << 20;
                  cfg.phys.numNodes = 1;
                  return cfg;
              }(),
              std::make_unique<DefaultThpPolicy>()),
          proc(kernel.createProcess("t"))
    {
        vma = &proc.mmap(64 * kHugeSize);
        proc.touchRange(vma->start(), vma->bytes());
    }

    XlatConfig
    config(XlatScheme scheme)
    {
        XlatConfig cfg;
        cfg.tlb = ScaledDefaults::tlb();
        cfg.walker = ScaledDefaults::walker();
        cfg.scheme = scheme;
        cfg.spot = ScaledDefaults::spot();
        cfg.rangeTlb = ScaledDefaults::rangeTlb();
        return cfg;
    }

    Kernel kernel;
    Process &proc;
    Vma *vma = nullptr;
};

/** Replay one access as a one-access chunk. */
void
access(TranslationSim &sim, const MemAccess &a)
{
    sim.accessChunk(&a, 1);
}

} // namespace

TEST_F(SimTest, RepeatAccessHitsTlb)
{
    TranslationSim sim(config(XlatScheme::Base), proc.pageTable());
    MemAccess a{0x400000, vma->start()};
    access(sim, a);
    EXPECT_EQ(sim.stats().walks, 1u);
    for (int i = 0; i < 100; ++i)
        access(sim, a);
    EXPECT_EQ(sim.stats().walks, 1u);
    EXPECT_EQ(sim.stats().l1Hits, 100u);
}

TEST_F(SimTest, ThrashForcesWalks)
{
    TranslationSim sim(config(XlatScheme::Base), proc.pageTable());
    // Round-robin over 64 huge pages >> 24-entry L2: mostly misses.
    for (int round = 0; round < 10; ++round)
        for (std::uint64_t h = 0; h < 64; ++h)
            access(sim, {0x400000, vma->start() + h * kHugeSize});
    EXPECT_GT(sim.stats().walks, 300u);
    EXPECT_GT(sim.stats().exposedCycles, 0u);
    EXPECT_EQ(sim.stats().exposedCycles, sim.stats().walkCycles);
}

TEST_F(SimTest, SpotHidesStableOffsets)
{
    TranslationSim sim(config(XlatScheme::Spot), proc.pageTable());
    // Mark the mapping so fills are allowed (native: guest bit only).
    for (Vpn v = vma->start().pageNumber();
         v < vma->start().pageNumber() + vma->pages(); v += 512)
        proc.pageTable().setContigBit(v, true);

    for (int round = 0; round < 20; ++round)
        for (std::uint64_t h = 0; h < 64; ++h)
            access(sim, {0x400000, vma->start() + h * kHugeSize});
    const auto &s = sim.stats();
    EXPECT_GT(s.spotCorrect, s.walks / 2);
    EXPECT_LT(s.exposedCycles, s.walkCycles / 2);
}

TEST_F(SimTest, SpotWithoutMarksNeverFills)
{
    TranslationSim sim(config(XlatScheme::Spot), proc.pageTable());
    for (int round = 0; round < 10; ++round)
        for (std::uint64_t h = 0; h < 64; ++h)
            access(sim, {0x400000, vma->start() + h * kHugeSize});
    EXPECT_EQ(sim.stats().spotCorrect, 0u);
    EXPECT_EQ(sim.stats().spotNoPrediction, sim.stats().walks);
}

TEST_F(SimTest, RmmHitsEraseExposedCost)
{
    TranslationSim sim(config(XlatScheme::Rmm), proc.pageTable());
    sim.setSegments(extractSegs(proc.pageTable()));
    for (int round = 0; round < 10; ++round)
        for (std::uint64_t h = 0; h < 64; ++h)
            access(sim, {0x400000, vma->start() + h * kHugeSize});
    // A single contiguous mapping: after the first refill every miss
    // hits the cached range.
    EXPECT_GT(sim.stats().rangeHits, sim.stats().walks - 5);
    EXPECT_LT(sim.stats().exposedCycles, sim.stats().walkCycles / 10);
}

TEST_F(SimTest, DsSkipsTranslationEntirely)
{
    TranslationSim sim(config(XlatScheme::Ds), proc.pageTable());
    sim.setSegments(extractSegs(proc.pageTable()));
    for (std::uint64_t h = 0; h < 64; ++h)
        access(sim, {0x400000, vma->start() + h * kHugeSize});
    EXPECT_EQ(sim.stats().walks, 0u);
    EXPECT_EQ(sim.stats().segmentHits, 64u);
}

TEST_F(SimTest, DsMergesAdjacentSegments)
{
    // Two VMAs that are virtually adjacent after merge logic: feed
    // synthetic segments and check both are covered.
    TranslationSim sim(config(XlatScheme::Ds), proc.pageTable());
    std::vector<Seg> segs{Seg{100, 5000, 50}, Seg{150, 9000, 50},
                          Seg{400, 1000, 10}};
    sim.setSegments(std::move(segs));
    access(sim, {1, Gva{120 << kPageShift}});
    access(sim, {1, Gva{180 << kPageShift}});
    access(sim, {1, Gva{405 << kPageShift}});
    EXPECT_EQ(sim.stats().segmentHits, 3u);
}

TEST_F(SimTest, AccessCountsAreConsistent)
{
    TranslationSim sim(config(XlatScheme::Base), proc.pageTable());
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
        access(sim, {0x400000, vma->start() +
                                   (rng.below(vma->bytes()) & ~7ull)});
    }
    const auto &s = sim.stats();
    EXPECT_EQ(s.accesses, 5000u);
    EXPECT_EQ(s.l1Hits + s.l2Hits + s.walks, s.accesses);
}
