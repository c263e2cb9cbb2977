#include <gtest/gtest.h>

#include "base/rng.hh"
#include "base/simd.hh"
#include "core/config.hh"
#include "mm/kernel.hh"
#include "tlb/replay.hh"
#include "virt/vm.hh"

using namespace contig;

namespace
{

/**
 * The replay engine's determinism contract (tlb/replay.hh): chunked
 * replay is instruction-identical to feeding a TranslationSim one
 * access per chunk, and neither chunking nor the walk memo moves a
 * simulated counter.
 */
struct ReplayTest : public ::testing::Test
{
    ReplayTest()
        : kernel(
              [] {
                  KernelConfig cfg;
                  cfg.phys.bytesPerNode = 256ull << 20;
                  cfg.phys.numNodes = 1;
                  return cfg;
              }(),
              std::make_unique<DefaultThpPolicy>()),
          proc(kernel.createProcess("r"))
    {
        vma = &proc.mmap(64 * kHugeSize);
        proc.touchRange(vma->start(), vma->bytes());
        // Mark the mapping so SpOT is allowed to fill its table.
        for (Vpn v = vma->start().pageNumber();
             v < vma->start().pageNumber() + vma->pages(); v += 512)
            proc.pageTable().setContigBit(v, true);
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

    /** A mixed-PC random stream over the touched VMA. */
    std::vector<MemAccess>
    trace(std::size_t n, std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<MemAccess> t(n);
        for (auto &a : t)
            a = {0x400000 + (rng.below(8) << 3),
                 vma->start() + (rng.below(vma->bytes()) & ~7ull)};
        return t;
    }

    Kernel kernel;
    Process &proc;
    Vma *vma = nullptr;
};

void
feed(ReplayEngine &engine, const std::vector<MemAccess> &t,
     std::size_t chunk)
{
    for (std::size_t off = 0; off < t.size(); off += chunk)
        engine.replayChunk(&t[off], std::min(chunk, t.size() - off));
}

/** The reference replay: one access per accessChunk call. */
void
feedOneByOne(TranslationSim &sim, const std::vector<MemAccess> &t)
{
    for (const MemAccess &a : t)
        sim.accessChunk(&a, 1);
}

void
expectSameStats(const XlatStats &a, const XlatStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.walkRefs, b.walkRefs);
    EXPECT_EQ(a.walkCycles, b.walkCycles);
    EXPECT_EQ(a.exposedCycles, b.exposedCycles);
    EXPECT_EQ(a.spotCorrect, b.spotCorrect);
    EXPECT_EQ(a.spotMispredicted, b.spotMispredicted);
    EXPECT_EQ(a.spotNoPrediction, b.spotNoPrediction);
    EXPECT_EQ(a.rangeHits, b.rangeHits);
    EXPECT_EQ(a.segmentHits, b.segmentHits);
}

} // namespace

TEST_F(ReplayTest, OneShardMatchesSequentialSimAllSchemes)
{
    const auto t = trace(20000, 11);
    for (XlatScheme scheme : {XlatScheme::Base, XlatScheme::Spot,
                              XlatScheme::Rmm, XlatScheme::Ds}) {
        TranslationSim sim(config(scheme), proc.pageTable());
        ReplayEngine engine(config(scheme), 1, proc.pageTable());
        if (scheme == XlatScheme::Rmm || scheme == XlatScheme::Ds) {
            sim.setSegments(extractSegs(proc.pageTable()));
            engine.setSegments(extractSegs(proc.pageTable()));
        }
        feedOneByOne(sim, t);
        feed(engine, t, 97); // odd chunk: exercises short tails
        expectSameStats(engine.mergedStats(), sim.stats());
        EXPECT_EQ(engine.accesses(), t.size());
    }
}

TEST_F(ReplayTest, ChunkSizeNeverMovesCounters)
{
    const auto t = trace(20000, 12);
    ReplayEngine a(config(XlatScheme::Spot), 1, proc.pageTable());
    ReplayEngine b(config(XlatScheme::Spot), 1, proc.pageTable());
    feed(a, t, 4096);
    feed(b, t, 33);
    expectSameStats(a.mergedStats(), b.mergedStats());
    EXPECT_GT(a.chunks(), 0u);
    EXPECT_GT(b.chunks(), a.chunks());

    // Conservation: every access is a hit or a walk, and every SpOT
    // walk has exactly one outcome.
    const XlatStats &s = a.mergedStats();
    EXPECT_EQ(s.accesses, t.size());
    EXPECT_EQ(s.l1Hits + s.l2Hits + s.walks, s.accesses);
    EXPECT_EQ(s.spotCorrect + s.spotMispredicted + s.spotNoPrediction,
              s.walks);
}

TEST_F(ReplayTest, WalkMemoNeverMovesCounters)
{
    const auto t = trace(20000, 13);
    XlatConfig on = config(XlatScheme::Spot);
    XlatConfig off = config(XlatScheme::Spot);
    on.walker.memoEnabled = true;
    off.walker.memoEnabled = false;
    ReplayEngine ea(on, 1, proc.pageTable());
    ReplayEngine eb(off, 1, proc.pageTable());
    feed(ea, t, 1024);
    feed(eb, t, 1024);
    expectSameStats(ea.mergedStats(), eb.mergedStats());
    // The memo was actually exercised, not just disabled twice.
    const WalkMemoStats *ms = ea.sim().walker().memoStats();
    ASSERT_NE(ms, nullptr);
    EXPECT_GT(ms->guestHits + ms->guestMisses, 0u);
    EXPECT_EQ(eb.sim().walker().memoStats(), nullptr);
}

TEST_F(ReplayTest, MutationEpochKeepsMemoizedReplayFresh)
{
    // Kernel-path table mutations bump PageTable::generation(), so a
    // replay interleaved with mapping changes must keep matching a
    // memo-off replay (stale memo entries are dropped, not served).
    const auto t1 = trace(8000, 14);
    XlatConfig on = config(XlatScheme::Base);
    XlatConfig off = config(XlatScheme::Base);
    off.walker.memoEnabled = false;
    ReplayEngine ea(on, 1, proc.pageTable());
    ReplayEngine eb(off, 1, proc.pageTable());
    feed(ea, t1, 512);
    feed(eb, t1, 512);

    const std::uint64_t gen_before = proc.pageTable().generation();
    Vma &extra = proc.mmap(4 * kHugeSize);
    proc.touchRange(extra.start(), extra.bytes());
    EXPECT_GT(proc.pageTable().generation(), gen_before);

    Rng rng(15);
    std::vector<MemAccess> t2(8000);
    for (auto &a : t2)
        a = {0x400000, extra.start() + (rng.below(extra.bytes()) & ~7ull)};
    feed(ea, t1, 512); // revisit memoized pages: stale entries drop
    feed(eb, t1, 512);
    feed(ea, t2, 512);
    feed(eb, t2, 512);
    expectSameStats(ea.mergedStats(), eb.mergedStats());
    const WalkMemoStats *ms = ea.sim().walker().memoStats();
    ASSERT_NE(ms, nullptr);
    EXPECT_GT(ms->staleDrops, 0u);
}

TEST_F(ReplayTest, VirtualizedOneShardMatchesSequentialSim)
{
    KernelConfig hcfg;
    hcfg.phys.bytesPerNode = 256ull << 20;
    hcfg.phys.numNodes = 1;
    Kernel host(hcfg, std::make_unique<DefaultThpPolicy>());
    VmConfig vcfg;
    vcfg.guestBytesPerNode = 128ull << 20;
    vcfg.guestNodes = 1;
    VirtualMachine vm(host, std::make_unique<DefaultThpPolicy>(), vcfg);
    Process &p = vm.guest().createProcess("g");
    Vma &gvma = p.mmap(32 * kHugeSize);
    p.touchRange(gvma.start(), gvma.bytes());

    Rng rng(16);
    std::vector<MemAccess> t(20000);
    for (auto &a : t)
        a = {0x400000 + (rng.below(8) << 3),
             gvma.start() + (rng.below(gvma.bytes()) & ~7ull)};

    TranslationSim sim(config(XlatScheme::Spot), p.pageTable(), vm);
    ReplayEngine engine(config(XlatScheme::Spot), 1, p.pageTable(), vm);
    feedOneByOne(sim, t);
    feed(engine, t, 97);
    expectSameStats(engine.mergedStats(), sim.stats());
}

TEST_F(ReplayTest, BatchedEngineMatchesReferenceAllSchemes)
{
    // The engine golden-equivalence contract (tlb/translation_sim.hh):
    // the batched SoA inner loop is a pure wall-clock rewrite of the
    // per-access Reference loop — every simulated counter identical,
    // per scheme.
    const auto t = trace(20000, 31);
    for (XlatScheme scheme : {XlatScheme::Base, XlatScheme::Spot,
                              XlatScheme::Rmm, XlatScheme::Ds}) {
        XlatConfig ref_cfg = config(scheme);
        XlatConfig bat_cfg = config(scheme);
        ref_cfg.engine = XlatEngine::Reference;
        bat_cfg.engine = XlatEngine::Batched;
        ReplayEngine ref(ref_cfg, 1, proc.pageTable());
        ReplayEngine bat(bat_cfg, 1, proc.pageTable());
        if (scheme == XlatScheme::Rmm || scheme == XlatScheme::Ds) {
            ref.setSegments(extractSegs(proc.pageTable()));
            bat.setSegments(extractSegs(proc.pageTable()));
        }
        feed(ref, t, 97);
        feed(bat, t, 97);
        expectSameStats(bat.mergedStats(), ref.mergedStats());
    }
}

TEST_F(ReplayTest, BatchedEngineMatchesReferenceVirtualized)
{
    KernelConfig hcfg;
    hcfg.phys.bytesPerNode = 256ull << 20;
    hcfg.phys.numNodes = 1;
    Kernel host(hcfg, std::make_unique<DefaultThpPolicy>());
    VmConfig vcfg;
    vcfg.guestBytesPerNode = 128ull << 20;
    vcfg.guestNodes = 1;
    VirtualMachine vm(host, std::make_unique<DefaultThpPolicy>(), vcfg);
    Process &p = vm.guest().createProcess("g");
    Vma &gvma = p.mmap(32 * kHugeSize);
    p.touchRange(gvma.start(), gvma.bytes());

    Rng rng(37);
    std::vector<MemAccess> t(20000);
    for (auto &a : t)
        a = {0x400000 + (rng.below(8) << 3),
             gvma.start() + (rng.below(gvma.bytes()) & ~7ull)};

    XlatConfig ref_cfg = config(XlatScheme::Spot);
    XlatConfig bat_cfg = config(XlatScheme::Spot);
    ref_cfg.engine = XlatEngine::Reference;
    bat_cfg.engine = XlatEngine::Batched;
    ReplayEngine ref(ref_cfg, 1, p.pageTable(), vm);
    ReplayEngine bat(bat_cfg, 1, p.pageTable(), vm);
    feed(ref, t, 97);
    feed(bat, t, 97);
    expectSameStats(bat.mergedStats(), ref.mergedStats());
}

TEST_F(ReplayTest, ForcedScalarProbesNeverMoveCounters)
{
    // simd.hh's probe-width contract: the AVX2 and scalar kernels
    // return the same lane for the same input, so a forced-scalar
    // engine replays to identical counters. (On a non-AVX2 host both
    // engines run scalar and the test is trivially green.)
    const auto t = trace(20000, 41);
    ReplayEngine wide(config(XlatScheme::Spot), 1, proc.pageTable());
    const bool was = simd::forceScalar();
    simd::setForceScalar(true);
    ReplayEngine narrow(config(XlatScheme::Spot), 1, proc.pageTable());
    simd::setForceScalar(was);
    feed(wide, t, 1024);
    feed(narrow, t, 1024);
    expectSameStats(wide.mergedStats(), narrow.mergedStats());
}
