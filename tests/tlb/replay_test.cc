#include <gtest/gtest.h>

#include "base/rng.hh"
#include "core/config.hh"
#include "mm/kernel.hh"
#include "obs/attribution.hh"
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
        // A VMA smaller than a huge page faults in 4 KiB leaves.
        small = &proc.mmap(kSmallPages * kPageSize);
        proc.touchRange(small->start(), small->bytes());
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

    /** 4 KiB pages in `small`: far more than the 4 KiB TLB reach. */
    static constexpr std::uint64_t kSmallPages = 384;

    Kernel kernel;
    Process &proc;
    Vma *vma = nullptr;   //!< 2 MiB leaves
    Vma *small = nullptr; //!< 4 KiB leaves
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

/**
 * A stream mixing page sizes: runs of one to six accesses to one
 * page, each run on a random page of a random VMA, so the L1 probes
 * see same-page runs, switches between 2 MiB and 4 KiB pages, and
 * enough distinct pages to evict from every TLB array.
 */
std::vector<MemAccess>
mixedTrace(const std::vector<const Vma *> &vmas, std::size_t n,
           std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<MemAccess> t;
    t.reserve(n);
    while (t.size() < n) {
        const Vma &v = *vmas[rng.below(vmas.size())];
        const Gva page = v.start() + (rng.below(v.bytes()) & ~kPageMask);
        const Addr pc = 0x400000 + (rng.below(8) << 3);
        for (std::uint64_t k = 1 + rng.below(6); k > 0 && t.size() < n;
             --k)
            t.push_back({pc, page + (rng.below(kPageSize) & ~7ull)});
    }
    return t;
}

void
expectSameTlb(const Tlb &a, const Tlb &b, const char *name)
{
    SCOPED_TRACE(name);
    EXPECT_EQ(a.stats().lookups, b.stats().lookups);
    EXPECT_EQ(a.stats().hits, b.stats().hits);
    EXPECT_EQ(a.stats().fills, b.stats().fills);
    EXPECT_EQ(a.stats().evictions, b.stats().evictions);
}

/**
 * Every simulated counter of two pipelines: XlatStats and each TLB
 * array's TlbStats.
 */
void
expectSamePipeline(const TranslationSim &a, const TranslationSim &b)
{
    expectSameStats(a.stats(), b.stats());
    expectSameTlb(a.tlb().l1For(kHugeOrder), b.tlb().l1For(kHugeOrder),
                  "l1_2m");
    expectSameTlb(a.tlb().l1For(0), b.tlb().l1For(0), "l1_4k");
    expectSameTlb(a.tlb().l2_2m(), b.tlb().l2_2m(), "l2_2m");
    expectSameTlb(a.tlb().l2_4k(), b.tlb().l2_4k(), "l2_4k");
}

/**
 * Two attribution tables: every cost cell, and the exemplars with
 * their event ordinals (`seq`), which move if any event before them
 * is dropped, added or reordered.
 */
void
expectSameAttribution(const obs::XlatAttribution &a,
                      const obs::XlatAttribution &b)
{
    EXPECT_EQ(a.events(), b.events());
    for (unsigned o = 0; o < obs::kXlatOutcomes; ++o) {
        for (unsigned c = 0; c < obs::kContigClasses; ++c) {
            SCOPED_TRACE(testing::Message() << "outcome " << o
                                            << ", class " << c);
            const obs::CostCell &x = a.cell(o, c);
            const obs::CostCell &y = b.cell(o, c);
            EXPECT_EQ(x.events, y.events);
            EXPECT_EQ(x.cycles, y.cycles);
            EXPECT_EQ(x.exposed, y.exposed);
            ASSERT_EQ(x.hist.numBuckets(), y.hist.numBuckets());
            for (unsigned i = 0; i < x.hist.numBuckets(); ++i)
                EXPECT_EQ(x.hist.bucket(i), y.hist.bucket(i));
        }
    }
    const auto &ea = a.exemplars();
    const auto &eb = b.exemplars();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "exemplar " << i);
        EXPECT_EQ(ea[i].seq, eb[i].seq);
        EXPECT_EQ(ea[i].vpn, eb[i].vpn);
        EXPECT_EQ(ea[i].cycles, eb[i].cycles);
        EXPECT_EQ(ea[i].outcome, eb[i].outcome);
        EXPECT_EQ(ea[i].cls, eb[i].cls);
        EXPECT_EQ(ea[i].chunk, eb[i].chunk);
    }
}

const char *
schemeName(XlatScheme s)
{
    switch (s) {
      case XlatScheme::Base: return "base";
      case XlatScheme::Spot: return "spot";
      case XlatScheme::Rmm: return "rmm";
      case XlatScheme::Ds: return "ds";
    }
    return "?";
}

/**
 * The engine golden-equivalence contract (tlb/translation_sim.hh):
 * the batched loop is a pure wall-clock rewrite of the per-access
 * Reference loop. Replays `t` through a Reference and a Batched
 * engine from `make(config)`, with attribution off and then on
 * (events classified by `index_segs`), and requires every counter
 * and both attribution tables to be equal. `segs` go to setSegments
 * when not empty. Returns the Reference pipeline's statistics.
 */
template <class Make>
XlatStats
expectEnginesAgree(const XlatConfig &cfg, Make make,
                   const std::vector<Seg> &segs,
                   const std::vector<Seg> &index_segs,
                   const std::vector<MemAccess> &t)
{
    XlatStats ref_stats;
    for (bool attrib : {false, true}) {
        SCOPED_TRACE(attrib ? "attribution on" : "attribution off");
        XlatConfig ref_cfg = cfg;
        XlatConfig bat_cfg = cfg;
        ref_cfg.engine = XlatEngine::Reference;
        bat_cfg.engine = XlatEngine::Batched;
        obs::AttribRegistry::setEnabled(attrib);
        std::unique_ptr<ReplayEngine> ref = make(ref_cfg);
        std::unique_ptr<ReplayEngine> bat = make(bat_cfg);
        obs::AttribRegistry::setEnabled(false);
        if (!segs.empty()) {
            ref->setSegments(segs);
            bat->setSegments(segs);
        }
        if (attrib) {
            auto index =
                std::make_shared<const obs::ContigClassIndex>(index_segs);
            ref->setContigIndex(index);
            bat->setContigIndex(index);
        }
        feed(*ref, t, 97);
        feed(*bat, t, 97);
        expectSamePipeline(bat->sim(), ref->sim());
        if (attrib) {
            EXPECT_EQ(ref->sim().attrib()->events(), t.size());
            expectSameAttribution(*bat->sim().attrib(),
                                  *ref->sim().attrib());
        }
        ref_stats = ref->sim().stats();
    }
    obs::AttribRegistry::global().reset();
    return ref_stats;
}

/**
 * What each scheme gets from setSegments: every segment for vRMM;
 * for DS only those inside `direct`, so accesses elsewhere still
 * reach the TLBs.
 */
std::vector<Seg>
schemeSegments(XlatScheme scheme, const std::vector<Seg> &segs,
               const Vma &direct)
{
    if (scheme == XlatScheme::Rmm)
        return segs;
    std::vector<Seg> out;
    if (scheme == XlatScheme::Ds) {
        const Vpn lo = direct.start().pageNumber();
        const Vpn hi = lo + direct.pages();
        for (const Seg &s : segs)
            if (s.vpn >= lo && s.vpn + s.pages <= hi)
                out.push_back(s);
    }
    return out;
}

/**
 * The mixed stream must exercise what the hit path distinguishes:
 * L1 hits and evictions in both page sizes, L2 hits and walks.
 */
void
expectHitPathCoverage(const TranslationSim &sim)
{
    for (unsigned order : {0u, kHugeOrder}) {
        const TlbStats &l1 = sim.tlb().l1For(order).stats();
        EXPECT_GT(l1.hits, 0u) << "order " << order;
        EXPECT_GT(l1.evictions, 0u) << "order " << order;
    }
    EXPECT_GT(sim.stats().l2Hits, 0u);
    EXPECT_GT(sim.stats().walks, 0u);
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
    const PageTable &pt = proc.pageTable();
    ASSERT_EQ(pt.lookup(vma->start().pageNumber())->order, kHugeOrder);
    ASSERT_EQ(pt.lookup(small->start().pageNumber())->order, 0u);
    const auto t = mixedTrace({vma, small}, 20000, 31);
    const std::vector<Seg> segs = extractSegs(pt);
    for (XlatScheme scheme : {XlatScheme::Base, XlatScheme::Spot,
                              XlatScheme::Rmm, XlatScheme::Ds}) {
        SCOPED_TRACE(schemeName(scheme));
        const XlatStats s = expectEnginesAgree(
            config(scheme),
            [&](const XlatConfig &cfg) {
                return std::make_unique<ReplayEngine>(cfg, 1, pt);
            },
            schemeSegments(scheme, segs, *vma), segs, t);
        if (scheme == XlatScheme::Ds) {
            EXPECT_GT(s.segmentHits, 0u);
        }
    }
    // The stream reaches every case of the hit path.
    ReplayEngine base(config(XlatScheme::Base), 1, pt);
    feed(base, t, 97);
    expectHitPathCoverage(base.sim());
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
    for (Vpn v = gvma.start().pageNumber();
         v < gvma.start().pageNumber() + gvma.pages(); v += 512)
        p.pageTable().setContigBit(v, true);
    Vma &gsmall = p.mmap(kSmallPages * kPageSize);
    p.touchRange(gsmall.start(), gsmall.bytes());
    ASSERT_EQ(p.pageTable().lookup(gsmall.start().pageNumber())->order,
              0u);

    const auto t = mixedTrace({&gvma, &gsmall}, 20000, 37);
    const std::vector<Seg> segs = extract2d(p, vm);
    for (XlatScheme scheme : {XlatScheme::Base, XlatScheme::Spot,
                              XlatScheme::Rmm, XlatScheme::Ds}) {
        SCOPED_TRACE(schemeName(scheme));
        const XlatStats s = expectEnginesAgree(
            config(scheme),
            [&](const XlatConfig &cfg) {
                return std::make_unique<ReplayEngine>(cfg, 1,
                                                      p.pageTable(), vm);
            },
            schemeSegments(scheme, segs, gvma), segs, t);
        if (scheme == XlatScheme::Ds) {
            EXPECT_GT(s.segmentHits, 0u);
        }
    }
    ReplayEngine base(config(XlatScheme::Base), 1, p.pageTable(), vm);
    feed(base, t, 97);
    expectHitPathCoverage(base.sim());
}

TEST_F(ReplayTest, DsSegmentSearchMatchesReferenceAtEdges)
{
    // Direct segments laid inside the 2 MiB-leaf VMA with gaps, so
    // every probe that misses them still walks a mapped page. Per
    // segment: below its base (the gap before it, or below the first
    // segment), at its base, at base+pages-1, at base+pages and in
    // the gap after it; then above the last segment. The batched
    // engine's branch-free search must agree with the Reference
    // engine's upper_bound at every count of halving steps.
    const Vpn first = vma->start().pageNumber();
    const Vpn last = first + vma->pages() - 1;
    for (unsigned nsegs : {1u, 2u, 3u, 17u}) {
        SCOPED_TRACE(testing::Message() << nsegs << " segments");
        std::vector<Seg> segs;
        std::vector<Vpn> probes;
        for (unsigned k = 0; k < nsegs; ++k) {
            const Vpn base = first + 100 + k * 1000;
            const std::uint64_t pages = 40 + 13 * k;
            segs.push_back({base, 0, pages});
            for (Vpn v : {base - 1, base, base + pages - 1, base + pages,
                          base + pages + 400})
                probes.push_back(v);
        }
        probes.push_back(last);
        // Twice over: the second pass hits the TLBs it filled.
        std::vector<MemAccess> t;
        for (int pass = 0; pass < 2; ++pass)
            for (Vpn v : probes)
                t.push_back({0x400000, Gva{v << kPageShift}});

        const XlatStats s = expectEnginesAgree(
            config(XlatScheme::Ds),
            [&](const XlatConfig &cfg) {
                return std::make_unique<ReplayEngine>(cfg, 1,
                                                      proc.pageTable());
            },
            segs, segs, t);
        // In: base and base+pages-1 of each segment, on each pass.
        EXPECT_EQ(s.segmentHits, 2u * 2 * nsegs);
        EXPECT_EQ(s.segmentHits + s.l1Hits + s.l2Hits + s.walks,
                  t.size());
    }
}
