/**
 * @file
 * Checkpoint/restore: a saved TranslationSim / ReplayEngine resumes
 * byte-identically, the .ckpt container round-trips with its kernel
 * verification blobs, and every mismatch (format version, kernel
 * state, corruption) dies loudly instead of resuming a wrong
 * simulation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/serialize.hh"
#include "contig/analysis.hh"
#include "core/checkpoint.hh"
#include "core/config.hh"
#include "mm/kernel.hh"
#include "tlb/replay.hh"

using namespace contig;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

struct TmpFile
{
    explicit TmpFile(std::string p) : path(std::move(p)) {}
    ~TmpFile() { std::remove(path.c_str()); }
    std::string path;
};

struct CheckpointTest : public ::testing::Test
{
    CheckpointTest()
        : kernel(
              [] {
                  KernelConfig cfg;
                  cfg.phys.bytesPerNode = 256ull << 20;
                  cfg.phys.numNodes = 1;
                  return cfg;
              }(),
              std::make_unique<DefaultThpPolicy>()),
          proc(kernel.createProcess("c"))
    {
        vma = &proc.mmap(64 * kHugeSize);
        proc.touchRange(vma->start(), vma->bytes());
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

TEST_F(CheckpointTest, TranslationSimResumesByteIdentically)
{
    // Run the full stream on sim A. Run half on sim B, snapshot,
    // restore into a fresh sim C over the same page table, run the
    // second half there: C must land on A's exact counters — the
    // warmed TLC/SpOT/PSC state carried over, not just the totals.
    for (XlatScheme scheme :
         {XlatScheme::Base, XlatScheme::Spot, XlatScheme::Rmm}) {
        const auto t = trace(20000, 3);
        const std::size_t half = t.size() / 2;
        const auto segs = extractSegs(proc.pageTable());

        TranslationSim a(config(scheme), proc.pageTable());
        a.setSegments(segs);
        a.accessChunk(t.data(), t.size());

        TranslationSim b(config(scheme), proc.pageTable());
        b.setSegments(segs);
        b.accessChunk(t.data(), half);
        Serializer s;
        b.saveState(s);

        TranslationSim c(config(scheme), proc.pageTable());
        c.setSegments(segs);
        Deserializer d(s.data().data(), s.size(), "test snapshot");
        c.restoreState(d);
        c.accessChunk(t.data() + half, t.size() - half);

        expectSameStats(a.stats(), c.stats());
    }
}

TEST_F(CheckpointTest, ReplayEngineResumesByteIdentically)
{
    const auto t = trace(16384, 5);
    constexpr std::size_t kChunk = 2048;

    ReplayEngine a(config(XlatScheme::Spot), 1, proc.pageTable());
    for (std::size_t off = 0; off < t.size(); off += kChunk)
        a.replayChunk(&t[off], std::min(kChunk, t.size() - off));

    ReplayEngine b(config(XlatScheme::Spot), 1, proc.pageTable());
    for (std::size_t off = 0; off < t.size() / 2; off += kChunk)
        b.replayChunk(&t[off], kChunk);
    Serializer s;
    b.saveState(s);

    ReplayEngine c(config(XlatScheme::Spot), 1, proc.pageTable());
    Deserializer d(s.data().data(), s.size(), "test snapshot");
    c.restoreState(d);
    for (std::size_t off = t.size() / 2; off < t.size(); off += kChunk)
        c.replayChunk(&t[off], std::min(kChunk, t.size() - off));

    expectSameStats(a.mergedStats(), c.mergedStats());
    EXPECT_EQ(a.chunks(), c.chunks());
    EXPECT_EQ(a.accesses(), c.accesses());
}

TEST_F(CheckpointTest, FileRoundTripsWithKernelVerification)
{
    const auto t = trace(8192, 7);
    ReplayEngine engine(config(XlatScheme::Spot), 1, proc.pageTable());
    engine.replayChunk(t.data(), 4096);

    CkptMeta meta;
    meta.traceDigest = 0xDEADBEEF;
    meta.chunk = 1;
    meta.accesses = 4096;
    TmpFile f(tmpPath("ckpt_roundtrip.ckpt"));
    Checkpoint::write(f.path, meta, engine, {&kernel});

    Checkpoint ck(f.path);
    EXPECT_EQ(ck.meta().traceDigest, 0xDEADBEEFu);
    EXPECT_EQ(ck.meta().chunk, 1u);
    EXPECT_EQ(ck.meta().accesses, 4096u);

    // Restore into a fresh engine (kernel untouched → verification
    // passes) and finish the stream; a reference engine that never
    // checkpointed must agree.
    ReplayEngine resumed(config(XlatScheme::Spot), 1, proc.pageTable());
    ck.restore(resumed, {&kernel});
    resumed.replayChunk(t.data() + 4096, 4096);

    ReplayEngine ref(config(XlatScheme::Spot), 1, proc.pageTable());
    ref.replayChunk(t.data(), 4096);
    ref.replayChunk(t.data() + 4096, 4096);
    expectSameStats(ref.mergedStats(), resumed.mergedStats());
}

TEST_F(CheckpointTest, DeathOnKernelStateMismatch)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto t = trace(4096, 9);
    ReplayEngine engine(config(XlatScheme::Base), 1, proc.pageTable());
    engine.replayChunk(t.data(), t.size());

    CkptMeta meta;
    TmpFile f(tmpPath("ckpt_mismatch.ckpt"));
    Checkpoint::write(f.path, meta, engine, {&kernel});

    // Mutate kernel state after the snapshot: the resume-time rebuild
    // would not reproduce it, so restore must refuse.
    proc.mmap(kHugeSize);
    Checkpoint ck(f.path);
    ReplayEngine resumed(config(XlatScheme::Base), 1, proc.pageTable());
    EXPECT_DEATH(ck.restore(resumed, {&kernel}),
                 "differs from the snapshot");
}

TEST_F(CheckpointTest, DeathOnVersionMismatch)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto t = trace(4096, 11);
    ReplayEngine engine(config(XlatScheme::Base), 1, proc.pageTable());
    engine.replayChunk(t.data(), t.size());

    CkptMeta meta;
    TmpFile f(tmpPath("ckpt_version.ckpt"));
    Checkpoint::write(f.path, meta, engine, {&kernel});

    // Rewrite the version field (bytes 4..7, after the magic) to the
    // previous format and re-seal the trailing CRC, so only the
    // version check stands between the file and a misread.
    std::FILE *fp = std::fopen(f.path.c_str(), "rb");
    ASSERT_NE(fp, nullptr);
    std::vector<std::uint8_t> buf;
    for (int c; (c = std::fgetc(fp)) != EOF;)
        buf.push_back(static_cast<std::uint8_t>(c));
    std::fclose(fp);
    ASSERT_GT(buf.size(), 12u);
    ASSERT_EQ(buf[4], kCkptVersion);
    buf[4] = kCkptVersion - 1;
    const std::uint32_t crc = crc32(buf.data(), buf.size() - 4);
    for (unsigned i = 0; i < 4; ++i)
        buf[buf.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    fp = std::fopen(f.path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fwrite(buf.data(), 1, buf.size(), fp);
    std::fclose(fp);

    EXPECT_DEATH({ Checkpoint ck(f.path); }, "version mismatch");
}

TEST_F(CheckpointTest, DeathOnCorruptFile)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto t = trace(4096, 13);
    ReplayEngine engine(config(XlatScheme::Base), 1, proc.pageTable());
    engine.replayChunk(t.data(), t.size());

    CkptMeta meta;
    TmpFile f(tmpPath("ckpt_corrupt.ckpt"));
    Checkpoint::write(f.path, meta, engine, {&kernel});

    // Flip a byte in the middle: the trailing CRC catches it.
    std::FILE *fp = std::fopen(f.path.c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 100, SEEK_SET);
    const int c = std::fgetc(fp);
    std::fseek(fp, 100, SEEK_SET);
    std::fputc(c ^ 0x20, fp);
    std::fclose(fp);
    EXPECT_DEATH({ Checkpoint ck(f.path); }, "CRC mismatch");

    EXPECT_DEATH({ Checkpoint ck("/nonexistent/nope.ckpt"); },
                 "cannot open");
}
