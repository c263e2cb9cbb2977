/**
 * @file
 * Synthetic stand-ins for the paper's workloads (Table III), scaled
 * so that footprint / machine-size and footprint / TLB-reach match
 * the paper's regime (DESIGN.md, "Scaling rules"; the paper's GiB
 * become MiB here at scale 1.0):
 *
 *   svm      (29 GiB -> 232 MiB): CSR streaming + skewed model-vector
 *            lookups + irregular accesses over scattered small VMAs
 *            (the residual-miss behaviour of §VI-B);
 *   pagerank (78 GiB -> 624 MiB): sequential edge scans + power-law
 *            vertex lookups;
 *   hashjoin (102 GiB -> 816 MiB): random-build hash table (random
 *            first-touch order) + uniform probes + sequential scan;
 *   xsbench  (122 GiB -> 976 MiB): uniform cross-section lookups over
 *            large grids;
 *   bt       (167 GiB -> 1336 MiB): five large arrays touched
 *            interleaved (the irregular fault pattern that stresses
 *            CA paging at the NUMA boundary) and swept with strides.
 *
 * Each workload is (a) an allocation/population script driving page
 * faults — the contiguity experiments — and (b) a steady-state
 * (pc, va) access stream — the TLB/SpOT experiments. VMA sizes carry
 * realistic slack over the touched footprint so pre-allocation bloat
 * (Table VI) reproduces.
 */

#ifndef CONTIG_WORKLOADS_WORKLOADS_HH
#define CONTIG_WORKLOADS_WORKLOADS_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "mm/process.hh"
#include "tlb/translation_sim.hh"

namespace contig
{

class Kernel;

/** Workload knobs. */
struct WorkloadConfig
{
    /** Footprint multiplier over the scaled defaults. */
    double scale = 1.0;
    /** Seed for the workload's private RNG (touch order, streams). */
    std::uint64_t seed = 12345;
};

/**
 * Base class: a set of memory regions, a fault-driving population
 * pattern, and an access-stream generator.
 */
class Workload
{
  public:
    explicit Workload(const WorkloadConfig &cfg)
        : cfg_(cfg), rng_(cfg.seed)
    {}
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** mmap all regions in `proc` and run the population pattern. */
    void setup(Process &proc);

    /** munmap every region (keeps the process). */
    void teardown();

    /**
     * One steady-state memory access. The built-in workloads generate
     * in chunks, so theirs is a one-element fillAccesses(); a subclass
     * may instead override only this and inherit the per-access
     * fillAccesses() loop.
     */
    virtual MemAccess nextAccess(Rng &rng) = 0;

    /**
     * Fill a chunk of steady-state accesses, drawing from `rng` and
     * leaving it where the chunk's last draw left it. The base
     * implementation is `for (i < n) out[i] = nextAccess(rng)`. The
     * built-in workloads override it with a chunk loop that keeps the
     * generator state in locals and stores it back at the end, so
     * chunk boundaries never change the sequence (tests/workloads pin
     * every stream by digest and compare chunk sizes element-wise).
     */
    virtual void fillAccesses(Rng &rng, MemAccess *out, std::size_t n);

    /** Touched (used) footprint in bytes. */
    std::uint64_t footprintBytes() const;
    /** Total reserved (VMA) bytes, >= footprint (slack = bloat source). */
    std::uint64_t reservedBytes() const;

    const std::vector<Vma *> &vmas() const { return vmas_; }
    Process *process() const { return proc_; }

    /**
     * Reuse an existing page-cache file as the input dataset (for
     * consecutive-run experiments: the cache persists across runs).
     * Must be called before setup(); otherwise setup creates a file.
     */
    void setInputFile(std::uint32_t id) { inputFileId_ = id; }

    /** The input file id actually used (valid after setup). */
    std::optional<std::uint32_t> inputFileId() const
    { return inputFileId_; }

  protected:
    /** One region: reserved VMA size and the prefix actually used. */
    struct Region
    {
        std::uint64_t vmaBytes;
        std::uint64_t touchBytes;
    };

    /** Drive the faults (default: sequential touch of every region). */
    virtual void touchPattern(Process &proc);

    /**
     * Populate `anon_region` from the input file: alternating read()
     * batches (filling the page cache) and heap writes — the
     * interleaving of readahead and anonymous faults the paper calls
     * out as a fragmentation source.
     */
    void populateFromFile(Process &proc, std::size_t anon_region);

    Gva base(std::size_t region) const { return vmas_[region]->start(); }

    /** One access from fillAccesses: the built-ins' nextAccess. */
    MemAccess
    fillOne(Rng &rng)
    {
        MemAccess a;
        fillAccesses(rng, &a, 1);
        return a;
    }

    /** Address `off` bytes into region i (off wraps at touchBytes). */
    Gva
    at(std::size_t region, std::uint64_t off) const
    {
        return base(region) + (off % regions_[region].touchBytes);
    }

    std::uint64_t scaled(std::uint64_t bytes) const
    {
        auto v = static_cast<std::uint64_t>(bytes * cfg_.scale);
        return std::max<std::uint64_t>(v & ~kPageMask, kPageSize);
    }

    WorkloadConfig cfg_;
    Rng rng_;
    std::vector<Region> regions_;
    std::vector<Vma *> vmas_;
    Process *proc_ = nullptr;
    /** Bytes of dataset the workload read()s at startup (0 = none). */
    std::uint64_t inputFileBytes_ = 0;
    std::optional<std::uint32_t> inputFileId_;
    std::uint64_t fileReadCursorPages_ = 0;
};

/** Liblinear-SVM-like: streaming CSR + skewed weight lookups. */
class SvmWorkload : public Workload
{
  public:
    explicit SvmWorkload(const WorkloadConfig &cfg = {});
    std::string name() const override { return "svm"; }
    MemAccess nextAccess(Rng &rng) override { return fillOne(rng); }
    void fillAccesses(Rng &rng, MemAccess *out, std::size_t n) override;

  protected:
    void touchPattern(Process &proc) override;

  private:
    std::unique_ptr<ZipfSampler> weightZipf_;
    // Stream cursors are offsets kept in [0, touchBytes).
    std::uint64_t valuesCursor_ = 0;
    std::uint64_t colidxCursor_ = 0;
    std::uint64_t weightHot_ = 0;   //!< current hot weight entry
    std::size_t scratchVma_ = 0;    //!< current scratch VMA
    std::uint64_t scratchHot_ = 0;  //!< current hot scratch offset
    std::size_t scratchFirst_ = 0;  //!< index of the first scratch VMA
};

/** Ligra-PageRank-like: edge scans + power-law vertex lookups. */
class PageRankWorkload : public Workload
{
  public:
    explicit PageRankWorkload(const WorkloadConfig &cfg = {});
    std::string name() const override { return "pagerank"; }
    MemAccess nextAccess(Rng &rng) override { return fillOne(rng); }
    void fillAccesses(Rng &rng, MemAccess *out, std::size_t n) override;

  protected:
    void touchPattern(Process &proc) override;

  private:
    std::unique_ptr<ZipfSampler> vertexZipf_;
    std::uint64_t edgeCursor_ = 0; //!< in [0, touchBytes)
    std::uint64_t srcHot_ = 0;
    std::uint64_t dstHot_ = 0;
};

/** Hashjoin microbenchmark: random build order, uniform probes. */
class HashjoinWorkload : public Workload
{
  public:
    explicit HashjoinWorkload(const WorkloadConfig &cfg = {});
    std::string name() const override { return "hashjoin"; }
    MemAccess nextAccess(Rng &rng) override { return fillOne(rng); }
    void fillAccesses(Rng &rng, MemAccess *out, std::size_t n) override;

  protected:
    void touchPattern(Process &proc) override;

  private:
    std::uint64_t scanCursor_ = 0; //!< in [0, touchBytes)
    std::uint64_t probeHot_ = 0;
};

/** XSBench-like: uniform lookups over large cross-section grids. */
class XsbenchWorkload : public Workload
{
  public:
    explicit XsbenchWorkload(const WorkloadConfig &cfg = {});
    std::string name() const override { return "xsbench"; }
    MemAccess nextAccess(Rng &rng) override { return fillOne(rng); }
    void fillAccesses(Rng &rng, MemAccess *out, std::size_t n) override;

  private:
    std::uint64_t concCursor_ = 0; //!< in [0, touchBytes)
    std::uint64_t nuclideHot_ = 0;
    std::uint64_t energyHot_ = 0;
};

/** NPB-BT-like: five large arrays, interleaved faults, stride sweeps. */
class BtWorkload : public Workload
{
  public:
    explicit BtWorkload(const WorkloadConfig &cfg = {});
    std::string name() const override { return "bt"; }
    MemAccess nextAccess(Rng &rng) override { return fillOne(rng); }
    void fillAccesses(Rng &rng, MemAccess *out, std::size_t n) override;

  protected:
    void touchPattern(Process &proc) override;

  private:
    std::uint64_t sweepCursor_ = 0; //!< in [0, touchBytes)
    std::size_t sweepArray_ = 0;
    unsigned burst_ = 0;
};

/** TLB-friendly control (the Spec2017-like check of §VI-A). */
class TlbFriendlyWorkload : public Workload
{
  public:
    explicit TlbFriendlyWorkload(const WorkloadConfig &cfg = {});
    std::string name() const override { return "tlbfriendly"; }
    MemAccess nextAccess(Rng &rng) override { return fillOne(rng); }
    void fillAccesses(Rng &rng, MemAccess *out, std::size_t n) override;

  private:
    std::uint64_t cursor_ = 0; //!< in [0, touchBytes)
};

/** Factory over the five paper workloads. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadConfig &cfg = {});

/** The five evaluation workloads in Table III order. */
const std::vector<std::string> &paperWorkloads();

/**
 * The "hog" fragmentation micro-benchmark (§VI-A): pins `fraction`
 * of the machine's memory in scattered 2-4 MiB chunks, leaving free
 * memory fragmented at coarse (>2 MiB) granularity. Returns the hog
 * process (exit it to release the memory).
 */
Process &hogMemory(Kernel &kernel, double fraction, Rng &rng);

/**
 * System churn between runs (the machine-aging source behind
 * Fig. 1b): pins `islands` readahead-window-sized bursts of
 * long-lived page-cache pages (logs, dentry-like slabs), with
 * allocation entropy — modelled as free-list shuffles — between
 * bursts. On a stock machine each burst lands in a random free block
 * and stays there as an unmovable island; CA paging's per-file
 * Offset packs the same pages into one contiguous run, which is
 * exactly the fragmentation-restraint effect of §III-C.
 */
void systemChurn(Kernel &kernel, std::uint64_t islands,
                 std::uint64_t seed = 0xA6E);

} // namespace contig

#endif // CONTIG_WORKLOADS_WORKLOADS_HH
