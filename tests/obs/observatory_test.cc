#include <gtest/gtest.h>

#include "mm/kernel.hh"
#include "obs/observatory.hh"
#include "obs/snapshot.hh"
#include "phys/buddy.hh"

using namespace contig;
using namespace contig::obs;

namespace
{

KernelConfig
smallConfig(bool thp = false)
{
    KernelConfig cfg;
    cfg.phys.bytesPerNode = 128ull << 20;
    cfg.phys.numNodes = 2;
    cfg.thpEnabled = thp;
    return cfg;
}

} // namespace

// --- FMFI -----------------------------------------------------------------

TEST(Fmfi, KnownValues)
{
    // A 2048-page block with one page carved out decomposes into one
    // free block of each order 0..10: at the huge order (9), the
    // orders 9 and 10 are usable (512 + 1024 of 2047 free pages).
    std::vector<std::uint64_t> counts(kMaxOrder + 1, 0);
    for (unsigned o = 0; o <= 10; ++o)
        counts[o] = 1;
    EXPECT_DOUBLE_EQ(fmfiFromCounts(counts, kHugeOrder), 511.0 / 2047.0);

    // Fully intact top-order block: nothing is unusable.
    std::vector<std::uint64_t> intact(kMaxOrder + 1, 0);
    intact[kMaxOrder] = 1;
    EXPECT_DOUBLE_EQ(fmfiFromCounts(intact, kHugeOrder), 0.0);

    // Everything in base pages: all of it is unusable.
    std::vector<std::uint64_t> shattered(kMaxOrder + 1, 0);
    shattered[0] = 2048;
    EXPECT_DOUBLE_EQ(fmfiFromCounts(shattered, kHugeOrder), 1.0);

    // No free memory at all: defined as 0 (nothing to fragment).
    EXPECT_DOUBLE_EQ(
        fmfiFromCounts(std::vector<std::uint64_t>(kMaxOrder + 1, 0),
                       kHugeOrder),
        0.0);
}

TEST(Fmfi, BuddyLiveStateMatchesCounts)
{
    constexpr std::uint64_t frames_n = 8 * pagesInOrder(kMaxOrder);
    FrameArray frames(frames_n);
    BuddyAllocator buddy(frames, 0, frames_n);

    EXPECT_DOUBLE_EQ(buddy.unusableFreeIndex(kHugeOrder), 0.0);

    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn);
    // One top-order block shattered down to a page: 511 of the
    // remaining 16383 free pages sit below the huge order.
    EXPECT_DOUBLE_EQ(buddy.unusableFreeIndex(kHugeOrder),
                     511.0 / 16383.0);
    EXPECT_DOUBLE_EQ(
        fmfiFromCounts(buddy.freeBlockCounts(), kHugeOrder),
        buddy.unusableFreeIndex(kHugeOrder));

    buddy.free(*pfn, 0);
    EXPECT_DOUBLE_EQ(buddy.unusableFreeIndex(kHugeOrder), 0.0);
}

// --- per-VMA offset runs --------------------------------------------------

TEST(VmaRuns, AttributesSegsToVmas)
{
    // VMA 1: [0, 1024), VMA 2: [4096, 8192).
    std::vector<VmaSpan> spans{{0, 1024, 1}, {4096, 8192, 2}};
    std::vector<Seg> segs{
        {0, 100, 512},    // vma 1
        {512, 9000, 256}, // vma 1
        {4096, 200, 512}, // vma 2
    };
    auto runs = vmaRunStats(segs, spans, 7, "1d");
    ASSERT_EQ(runs.size(), 2u);

    EXPECT_EQ(runs[0].vmaId, 1u);
    EXPECT_EQ(runs[0].pid, 7u);
    EXPECT_EQ(runs[0].dim, "1d");
    EXPECT_EQ(runs[0].pages, 768u);
    EXPECT_EQ(runs[0].runs, 2u);
    EXPECT_EQ(runs[0].maxRun, 512u);
    // Weighted mean: (512^2 + 256^2) / 768.
    EXPECT_DOUBLE_EQ(runs[0].weightedMeanRun,
                     (512.0 * 512 + 256.0 * 256) / 768.0);

    EXPECT_EQ(runs[1].vmaId, 2u);
    EXPECT_EQ(runs[1].runs, 1u);
    EXPECT_EQ(runs[1].maxRun, 512u);
}

// --- flat encoding --------------------------------------------------------

namespace
{

Snapshot
sampleSnapshot()
{
    Snapshot snap;
    snap.seq = 3;
    snap.tick = 1000;
    snap.faults = 1000;
    snap.hugeFaults = 2;
    ZoneSnap z;
    z.node = 0;
    z.freePages = 2047;
    z.freeBlocks.assign(kMaxOrder + 1, 0);
    for (unsigned o = 0; o <= 10; ++o)
        z.freeBlocks[o] = 1;
    z.fmfi = 511.0 / 2047.0;
    z.clusterCount = 1;
    z.largestClusterPages = 1024;
    snap.zones.push_back(z);
    snap.vmaRuns.push_back(VmaRunSnap{"1d", 7, 1, 768, 2, 512, 426.0});
    snap.hasCoverage = true;
    snap.coverage.cov32 = 0.5;
    snap.coverage.cov128 = 0.75;
    snap.coverage.mappings = 40;
    snap.coverage.mappingsFor99 = 30;
    snap.coverage.totalPages = 4096;
    return snap;
}

} // namespace

TEST(FlatSnapCodec, DeltaRoundTrip)
{
    const Snapshot a = sampleSnapshot();
    Snapshot b = a;
    b.seq = 4;
    b.tick = 1100;
    b.zones[0].fmfi = 0.9;
    b.vmaRuns.clear(); // VMA went away: its keys must be deleted
    b.coverage.cov32 = 0.25;

    const FlatSnap fa = flatten(a);
    const FlatSnap fb = flatten(b);
    const FlatDelta d = diffFlat(fa, fb);

    // The delta only carries changes and removals.
    EXPECT_TRUE(d.set.count("zone0.fmfi"));
    EXPECT_TRUE(d.set.count("cov.cov32"));
    EXPECT_FALSE(d.set.count("cov.cov128"));
    EXPECT_FALSE(d.del.empty());

    EXPECT_EQ(applyDelta(fa, d), fb);
}

TEST(FlatSnapCodec, TimelineRecordRoundTrip)
{
    const FlatSnap flat = flatten(sampleSnapshot());

    TimelineRecord rec;
    rec.stream = 2;
    rec.domain = "CA:\"svm\""; // escaping must survive
    rec.seq = 3;
    rec.tick = 1000;
    rec.full = false;
    rec.set = flat;
    rec.del = {"vma1d.7.1.pages", "vma1d.7.1.runs"};

    const std::string line = encodeTimelineRecord(rec);
    std::string err;
    auto back = decodeTimelineRecord(line, &err);
    ASSERT_TRUE(back) << err;
    EXPECT_EQ(back->stream, rec.stream);
    EXPECT_EQ(back->domain, rec.domain);
    EXPECT_EQ(back->seq, rec.seq);
    EXPECT_EQ(back->tick, rec.tick);
    EXPECT_EQ(back->full, rec.full);
    EXPECT_EQ(back->set, rec.set);
    EXPECT_EQ(back->del, rec.del);
}

TEST(FlatSnapCodec, DecodeRejectsMalformed)
{
    EXPECT_FALSE(decodeTimelineRecord("not json"));
    EXPECT_FALSE(decodeTimelineRecord("[1,2,3]"));
    EXPECT_FALSE(decodeTimelineRecord(
        R"({"stream":0,"domain":"d","seq":0,"tick":0,"kind":"bogus","set":{}})"));
    EXPECT_FALSE(decodeTimelineRecord(
        R"({"stream":0,"domain":"d","seq":0,"tick":0,"kind":"full","set":{"k":"str"}})"));
    std::string err;
    EXPECT_FALSE(decodeTimelineRecord("{}", &err));
    EXPECT_FALSE(err.empty());
}

TEST(FlatSnapCodec, DecodeRejectsCountsThatAreNotUnsignedIntegers)
{
    for (const char *field : {"stream", "seq", "tick"}) {
        for (const char *bad :
             {"1e300", "18446744073709551616", "1.5", "-1"}) {
            std::string rec = R"({"stream":1,"seq":2,"tick":3,)"
                              R"("kind":"full","set":{"k":1}})";
            const std::string key = std::string("\"") + field + "\":";
            const std::size_t at = rec.find(key) + key.size();
            rec.replace(at, 1, bad);
            SCOPED_TRACE(rec);
            std::string err;
            EXPECT_FALSE(decodeTimelineRecord(rec, &err));
            EXPECT_NE(err.find(field), std::string::npos) << err;
        }
    }
    const auto ok = decodeTimelineRecord(
        R"({"stream":1,"seq":2,"tick":1e3,"kind":"full","set":{"k":1}})");
    ASSERT_TRUE(ok);
    EXPECT_EQ(ok->tick, 1000u);
}

// --- the sampler against a live kernel ------------------------------------

TEST(StateSampler, PeriodicFaultDrivenCapture)
{
    Kernel kernel(smallConfig(), std::make_unique<DefaultThpPolicy>());
    Process &proc = kernel.createProcess("obs_test");
    Vma &vma = kernel.mmapAnon(proc, 64 * kPageSize);

    SamplerConfig cfg;
    cfg.periodFaults = 4;
    StateSampler sampler(cfg);
    sampler.attachKernel(kernel);
    ASSERT_EQ(kernel.faultEngine().sampler(), &sampler);

    for (std::uint64_t i = 0; i < 16; ++i)
        kernel.touch(proc, vma.start() + i * kPageSize, Access::Write);

    // 16 base faults at period 4 -> 4 captures.
    ASSERT_EQ(sampler.snapshots().size(), 4u);
    const Snapshot &snap = sampler.snapshots().back();
    EXPECT_EQ(snap.faults, 16u);
    ASSERT_EQ(snap.zones.size(), 2u);
    EXPECT_GT(snap.zones[0].freePages + snap.zones[1].freePages, 0u);
    for (const ZoneSnap &z : snap.zones) {
        EXPECT_GE(z.fmfi, 0.0);
        EXPECT_LE(z.fmfi, 1.0);
        EXPECT_DOUBLE_EQ(z.fmfi,
                         fmfiFromCounts(z.freeBlocks, kHugeOrder));
    }

    sampler.detachKernel();
    EXPECT_EQ(kernel.faultEngine().sampler(), nullptr);
    // Detached, further faults never capture...
    kernel.touch(proc, vma.start() + 20 * kPageSize, Access::Write);
    EXPECT_EQ(sampler.snapshots().size(), 4u);
    // ...but the kernel stays readable through sampleNow().
    const Snapshot &manual = sampler.sampleNow();
    EXPECT_EQ(manual.faults, 17u);
}

TEST(StateSampler, KernellessSampleAtUsesExplicitTick)
{
    StateSampler sampler;
    const Snapshot &snap = sampler.sampleAt(123);
    EXPECT_EQ(snap.tick, 123u);
    EXPECT_EQ(snap.seq, 0u);
    EXPECT_TRUE(snap.zones.empty());
    EXPECT_FALSE(snap.hasCoverage);
    EXPECT_FALSE(snap.hasXlat);
}
