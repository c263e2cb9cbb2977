#include "workloads/workloads.hh"

#include <algorithm>

#include "base/align.hh"
#include "base/logging.hh"
#include "mm/kernel.hh"

namespace contig
{

namespace
{

constexpr std::uint64_t kMiB = 1ull << 20;

/** Synthetic instruction addresses for the access-stream PCs. */
constexpr Addr
pc(unsigned idx)
{
    return 0x400000 + idx * 0x40;
}

/**
 * `off % len` for `off < 2 * len` — a wrapped cursor plus one step
 * smaller than its region — as a compare and a masked subtract.
 */
constexpr std::uint64_t
wrap(std::uint64_t off, std::uint64_t len)
{
    return off - (len & -static_cast<std::uint64_t>(off >= len));
}

/**
 * Sample `zipf` through a copy of `rng`, so that a chunk loop's local
 * Rng never has its address taken and can stay in registers.
 */
std::uint64_t
sampleVia(ZipfSampler &zipf, Rng &rng)
{
    Rng copy = rng;
    const std::uint64_t v = zipf.sample(copy);
    rng = copy;
    return v;
}

} // namespace

void
Workload::setup(Process &proc)
{
    contig_assert(proc_ == nullptr, "workload already set up");
    proc_ = &proc;
    if (inputFileBytes_ > 0 && !inputFileId_) {
        inputFileId_ =
            proc.kernel().createFile(inputFileBytes_ >> kPageShift).id();
    }
    fileReadCursorPages_ = 0;
    for (const Region &r : regions_)
        vmas_.push_back(&proc.mmap(r.vmaBytes));
    touchPattern(proc);
}

void
Workload::populateFromFile(Process &proc, std::size_t anon_region)
{
    contig_assert(inputFileId_, "populateFromFile without an input file");
    File &file = proc.kernel().pageCache().file(*inputFileId_);
    const std::uint64_t heap_bytes = regions_[anon_region].touchBytes;
    const std::uint64_t heap_pages = heap_bytes >> kPageShift;
    // Read batches sized like readahead windows; write the heap in
    // proportion so file and anon allocations interleave.
    const std::uint64_t batch = 4 * kReadaheadPages;
    std::uint64_t heap_done = 0;
    std::uint64_t file_left =
        std::min(file.sizePages() - fileReadCursorPages_,
                 inputFileBytes_ >> kPageShift);
    const std::uint64_t file_total = file_left;
    while (file_left > 0) {
        const std::uint64_t n = std::min(batch, file_left);
        proc.kernel().readFile(file, fileReadCursorPages_, n);
        fileReadCursorPages_ += n;
        file_left -= n;
        // Matching share of heap writes.
        const std::uint64_t frac_pages =
            heap_pages * (file_total - file_left) / file_total;
        while (heap_done < frac_pages) {
            proc.touch(base(anon_region) + heap_done * kPageSize);
            ++heap_done;
        }
    }
    while (heap_done < heap_pages) {
        proc.touch(base(anon_region) + heap_done * kPageSize);
        ++heap_done;
    }
}

void
Workload::teardown()
{
    contig_assert(proc_, "teardown before setup");
    for (Vma *vma : vmas_)
        proc_->munmap(*vma);
    vmas_.clear();
    proc_ = nullptr;
}

void
Workload::fillAccesses(Rng &rng, MemAccess *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = nextAccess(rng);
}

void
Workload::touchPattern(Process &proc)
{
    for (std::size_t i = 0; i < regions_.size(); ++i)
        proc.touchRange(base(i), regions_[i].touchBytes);
}

std::uint64_t
Workload::footprintBytes() const
{
    std::uint64_t total = 0;
    for (const Region &r : regions_)
        total += r.touchBytes;
    return total;
}

std::uint64_t
Workload::reservedBytes() const
{
    std::uint64_t total = 0;
    for (const Region &r : regions_)
        total += r.vmaBytes;
    return total;
}

// --- svm ----------------------------------------------------------------

SvmWorkload::SvmWorkload(const WorkloadConfig &cfg) : Workload(cfg)
{
    // Region 0: CSR values (streamed), 1: column indices (streamed),
    // 2: model weights (skewed random), 3..10: scratch VMAs
    // (irregular accesses by a single instruction).
    const std::uint64_t values = scaled(140 * kMiB) + 44 * kPageSize;
    const std::uint64_t colidx = scaled(44 * kMiB);
    const std::uint64_t weights = scaled(36 * kMiB) + 200 * kPageSize;
    regions_.push_back({values + scaled(12 * kMiB), values});
    regions_.push_back({colidx + scaled(6 * kMiB), colidx});
    regions_.push_back({weights + scaled(2 * kMiB), weights});
    scratchFirst_ = regions_.size();
    // The scattered small VMAs keep their absolute (small) size at
    // any scale: they model fixed-size side structures.
    for (int i = 0; i < 16; ++i)
        regions_.push_back({3 * kMiB / 2, kMiB});
    weightZipf_ = std::make_unique<ZipfSampler>(weights / 64, 0.9);
    // The kdd12 dataset is read at startup and parsed into the CSR
    // arrays.
    inputFileBytes_ = scaled(120 * kMiB);
}

void
SvmWorkload::touchPattern(Process &proc)
{
    populateFromFile(proc, 0); // values parsed out of the dataset
    proc.touchRange(base(1), regions_[1].touchBytes);
    proc.touchRange(base(2), regions_[2].touchBytes);
    for (std::size_t i = scratchFirst_; i < regions_.size(); ++i)
        proc.touchRange(base(i), regions_[i].touchBytes);
}

// Streams dominate the access mix; the random structures are touched
// through slowly-moving hot pointers, so the new-page rate lands in the
// paper's ~1 %-of-accesses DTLB-miss regime.
//
//   roll  pc  region          behaviour
//   0.48  0   values          stream, +8 B
//   0.22  1   column indices  stream, +4 B
//   0.26  2   model weights   hot feature; w.p. 0.055 jump to a
//                             Zipf-ranked feature
//   0.04  3   scratch VMAs    hot offset; w.p. 0.09 hop to a random
//                             offset of a random scratch VMA (the
//                             residual misses outside the 32 largest
//                             mappings, §VI-B)
void
SvmWorkload::fillAccesses(Rng &rng, MemAccess *out, std::size_t n)
{
    constexpr std::uint64_t kRoll[3] = {
        Rng::threshold(0.48), Rng::threshold(0.70), Rng::threshold(0.96)};
    // Jump threshold per component; the streams draw none.
    constexpr std::uint64_t kJump[4] = {0, 0, Rng::threshold(0.055),
                                        Rng::threshold(0.09)};
    // Steps come from tables: written as `(k == 0) * 8`, GCC threads
    // the loop on k == 0 and the mixture roll becomes a branch again.
    constexpr std::uint64_t kValuesStep[4] = {8, 0, 0, 0};
    constexpr std::uint64_t kColidxStep[4] = {0, 4, 0, 0};
    const std::uint64_t values_len = regions_[0].touchBytes;
    const std::uint64_t colidx_len = regions_[1].touchBytes;
    const Addr values_base = base(0).value;
    const Addr colidx_base = base(1).value;
    std::uint64_t values = valuesCursor_;
    std::uint64_t colidx = colidxCursor_;
    Addr weight = base(2).value + weightHot_;
    Addr scratch = at(scratchVma_, scratchHot_).value;
    Rng r = rng;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t roll = r.next() >> 11;
        const unsigned k = (roll >= kRoll[0]) + (roll >= kRoll[1]) +
                           (roll >= kRoll[2]);
        const std::uint64_t jump = r.nextIf(k >= 2) >> 11;
        values = wrap(values + kValuesStep[k], values_len);
        colidx = wrap(colidx + kColidxStep[k], colidx_len);
        if (jump < kJump[k]) [[unlikely]] {
            if (k == 2) {
                weightHot_ = sampleVia(*weightZipf_, r) * 64;
                weight = base(2).value + weightHot_;
            } else {
                scratchVma_ =
                    scratchFirst_ + r.below(regions_.size() - scratchFirst_);
                scratchHot_ =
                    r.below(regions_[scratchVma_].touchBytes) & ~7ull;
                scratch = base(scratchVma_).value + scratchHot_;
            }
        }
        const Addr va[4] = {values_base + values, colidx_base + colidx,
                            weight, scratch};
        out[i] = {pc(k), Gva{va[k]}};
    }
    rng = r;
    valuesCursor_ = values;
    colidxCursor_ = colidx;
}

// --- pagerank -------------------------------------------------------------

PageRankWorkload::PageRankWorkload(const WorkloadConfig &cfg)
    : Workload(cfg)
{
    // 0: edge array (streamed), 1: source ranks, 2: destination ranks.
    const std::uint64_t edges = scaled(500 * kMiB) + 300 * kPageSize;
    const std::uint64_t ranks = scaled(58 * kMiB) + 100 * kPageSize;
    regions_.push_back({edges + scaled(30 * kMiB), edges});
    regions_.push_back({ranks + scaled(5 * kMiB), ranks});
    regions_.push_back({ranks + scaled(5 * kMiB), ranks});
    vertexZipf_ = std::make_unique<ZipfSampler>(ranks / 8, 0.8);
    // The friendster edge list is read at startup.
    inputFileBytes_ = scaled(160 * kMiB);
}

void
PageRankWorkload::touchPattern(Process &proc)
{
    populateFromFile(proc, 0); // edge array built from the graph file
    proc.touchRange(base(1), regions_[1].touchBytes);
    proc.touchRange(base(2), regions_[2].touchBytes);
}

//   roll  pc  region             behaviour
//   0.55  0   edge array         stream, +8 B
//   0.25  1   source ranks       hot vertex; w.p. 0.030 jump to the
//                                next (power-law) neighbour
//   0.20  2   destination ranks  hot vertex; w.p. 0.030 jump likewise
void
PageRankWorkload::fillAccesses(Rng &rng, MemAccess *out, std::size_t n)
{
    constexpr std::uint64_t kRoll[2] = {Rng::threshold(0.55),
                                        Rng::threshold(0.80)};
    constexpr std::uint64_t kJump[3] = {0, Rng::threshold(0.030),
                                        Rng::threshold(0.030)};
    constexpr std::uint64_t kEdgeStep[3] = {8, 0, 0};
    const std::uint64_t edge_len = regions_[0].touchBytes;
    const Addr edge_base = base(0).value;
    std::uint64_t edge = edgeCursor_;
    Addr src = base(1).value + srcHot_;
    Addr dst = base(2).value + dstHot_;
    Rng r = rng;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t roll = r.next() >> 11;
        const unsigned k = (roll >= kRoll[0]) + (roll >= kRoll[1]);
        const std::uint64_t jump = r.nextIf(k >= 1) >> 11;
        edge = wrap(edge + kEdgeStep[k], edge_len);
        if (jump < kJump[k]) [[unlikely]] {
            if (k == 1) {
                srcHot_ = sampleVia(*vertexZipf_, r) * 8;
                src = base(1).value + srcHot_;
            } else {
                dstHot_ = sampleVia(*vertexZipf_, r) * 8;
                dst = base(2).value + dstHot_;
            }
        }
        const Addr va[3] = {edge_base + edge, src, dst};
        out[i] = {pc(k), Gva{va[k]}};
    }
    rng = r;
    edgeCursor_ = edge;
}

// --- hashjoin --------------------------------------------------------------

HashjoinWorkload::HashjoinWorkload(const WorkloadConfig &cfg)
    : Workload(cfg)
{
    // 0: hash table (sized to the next power-of-two style slack: the
    // bloat source for eager paging in Table VI), 1: probe relation.
    const std::uint64_t table = scaled(430 * kMiB) + 150 * kPageSize;
    const std::uint64_t probe = scaled(386 * kMiB);
    regions_.push_back({scaled(816 * kMiB), table}); // ~47 % slack
    regions_.push_back({probe + scaled(2 * kMiB), probe});
}

void
HashjoinWorkload::touchPattern(Process &proc)
{
    // The build initializes the bucket array first (memset-style, so
    // first-touch is sequential), then inserts tuples into random
    // buckets — re-writes of already-mapped pages, no further faults.
    proc.touchRange(base(0), regions_[0].touchBytes);
    for (int i = 0; i < 4096; ++i)
        proc.touch(at(0, rng_.below(regions_[0].touchBytes) & ~7ull));
    // Probe relation is loaded sequentially.
    proc.touchRange(base(1), regions_[1].touchBytes);
}

//   roll  pc  region          behaviour
//   0.50  0   hash table      probe: hot bucket chain; w.p. 0.020 jump
//                             to a uniformly random bucket
//   0.50  1   probe relation  stream, +16 B
void
HashjoinWorkload::fillAccesses(Rng &rng, MemAccess *out, std::size_t n)
{
    constexpr std::uint64_t kRoll = Rng::threshold(0.50);
    constexpr std::uint64_t kJump[2] = {Rng::threshold(0.020), 0};
    constexpr std::uint64_t kScanStep[2] = {0, 16};
    const std::uint64_t table_len = regions_[0].touchBytes;
    const std::uint64_t scan_len = regions_[1].touchBytes;
    const Addr scan_base = base(1).value;
    std::uint64_t scan = scanCursor_;
    Addr probe = base(0).value + probeHot_;
    Rng r = rng;
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned k = (r.next() >> 11) >= kRoll;
        const std::uint64_t jump = r.nextIf(k == 0) >> 11;
        scan = wrap(scan + kScanStep[k], scan_len);
        if (jump < kJump[k]) [[unlikely]] {
            probeHot_ = r.below(table_len) & ~7ull;
            probe = base(0).value + probeHot_;
        }
        const Addr va[2] = {probe, scan_base + scan};
        out[i] = {pc(k), Gva{va[k]}};
    }
    rng = r;
    scanCursor_ = scan;
}

// --- xsbench ---------------------------------------------------------------

XsbenchWorkload::XsbenchWorkload(const WorkloadConfig &cfg)
    : Workload(cfg)
{
    // 0: nuclide grid (uniform random), 1: unionized energy grid
    // (random, binary-search-like), 2: concentrations (streamed).
    const std::uint64_t nuclide = scaled(700 * kMiB) + 250 * kPageSize;
    const std::uint64_t energy = scaled(100 * kMiB);
    const std::uint64_t concs = scaled(172 * kMiB);
    regions_.push_back({nuclide + scaled(2 * kMiB), nuclide});
    regions_.push_back({energy + scaled(1 * kMiB), energy});
    regions_.push_back({concs + scaled(1 * kMiB), concs});
}

//   roll  pc  region          behaviour
//   0.55  0   nuclide grid    cross-section lookup: w.p. 0.018 jump to
//                             a uniformly random row, then scan +8 B
//   0.25  1   energy grid     binary search: hot entry; w.p. 0.018
//                             jump to a uniformly random entry
//   0.20  2   concentrations  stream, +8 B
void
XsbenchWorkload::fillAccesses(Rng &rng, MemAccess *out, std::size_t n)
{
    constexpr std::uint64_t kRoll[2] = {Rng::threshold(0.55),
                                        Rng::threshold(0.80)};
    constexpr std::uint64_t kJump[3] = {Rng::threshold(0.018),
                                        Rng::threshold(0.018), 0};
    constexpr std::uint64_t kNuclideStep[3] = {8, 0, 0};
    constexpr std::uint64_t kConcStep[3] = {0, 0, 8};
    const std::uint64_t nuclide_len = regions_[0].touchBytes;
    const std::uint64_t energy_len = regions_[1].touchBytes;
    const std::uint64_t conc_len = regions_[2].touchBytes;
    const Addr nuclide_base = base(0).value;
    const Addr conc_base = base(2).value;
    std::uint64_t nuclide = nuclideHot_;
    std::uint64_t conc = concCursor_;
    Addr energy = base(1).value + energyHot_;
    Rng r = rng;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t roll = r.next() >> 11;
        const unsigned k = (roll >= kRoll[0]) + (roll >= kRoll[1]);
        const std::uint64_t jump = r.nextIf(k <= 1) >> 11;
        if (jump < kJump[k]) [[unlikely]] {
            if (k == 0) {
                nuclide = r.below(nuclide_len) & ~7ull;
            } else {
                energyHot_ = r.below(energy_len) & ~7ull;
                energy = base(1).value + energyHot_;
            }
        }
        nuclide = wrap(nuclide + kNuclideStep[k], nuclide_len);
        conc = wrap(conc + kConcStep[k], conc_len);
        const Addr va[3] = {nuclide_base + nuclide, energy,
                            conc_base + conc};
        out[i] = {pc(k), Gva{va[k]}};
    }
    rng = r;
    nuclideHot_ = nuclide;
    concCursor_ = conc;
}

// --- bt ---------------------------------------------------------------------

BtWorkload::BtWorkload(const WorkloadConfig &cfg) : Workload(cfg)
{
    // Five solver arrays of equal size.
    const std::uint64_t arr = scaled(267 * kMiB) + 400 * kPageSize;
    for (int i = 0; i < 5; ++i)
        regions_.push_back({arr + scaled(kMiB / 4), arr});
}

void
BtWorkload::touchPattern(Process &proc)
{
    // Interleaved initialization: cell i of every array in turn — the
    // irregular fault pattern that makes the arrays' CA mappings
    // compete for free blocks.
    const std::uint64_t chunk = 32 * kHugeSize;
    const std::uint64_t arr = regions_[0].touchBytes;
    for (std::uint64_t off = 0; off < arr; off += chunk) {
        for (std::size_t a = 0; a < regions_.size(); ++a) {
            const std::uint64_t len =
                std::min<std::uint64_t>(chunk, arr - off);
            proc.touchRange(base(a) + off, len);
        }
    }
}

// Plane-major stride sweeps across the five solver arrays: the
// k-dimension sweeps of BT stride by whole planes, so the TLB misses are
// regular crossings into new huge pages — exactly the
// regular-but-TLB-hostile pattern BT exhibits.
//
//   prob    pc     region        behaviour
//   0.9995  array  sweep array   3 cell reads 8 B apart, then stride
//                                one plane row (32 KiB) ahead
//   0.0005  array  random array  new sweep phase: jump to a random
//                                64 B-aligned offset of a random array
void
BtWorkload::fillAccesses(Rng &rng, MemAccess *out, std::size_t n)
{
    constexpr std::uint64_t kPhase = Rng::threshold(0.0005);
    std::uint64_t len = regions_[sweepArray_].touchBytes;
    Addr array_base = base(sweepArray_).value;
    Addr array_pc = pc(static_cast<unsigned>(sweepArray_));
    std::uint64_t cursor = sweepCursor_;
    unsigned burst = burst_;
    Rng r = rng;
    for (std::size_t i = 0; i < n; ++i) {
        if ((r.next() >> 11) < kPhase) [[unlikely]] {
            sweepArray_ = r.below(regions_.size());
            len = regions_[sweepArray_].touchBytes;
            cursor = r.below(len) & ~63ull;
            burst = 0;
            array_base = base(sweepArray_).value;
            array_pc = pc(static_cast<unsigned>(sweepArray_));
        }
        ++burst;
        const bool stride = burst >= 3;
        burst &= -static_cast<unsigned>(!stride);
        cursor = wrap(cursor + stride * 32768, len);
        out[i] = {array_pc,
                  Gva{array_base + wrap(cursor + burst * 8, len)}};
    }
    rng = r;
    sweepCursor_ = cursor;
    burst_ = burst;
}

// --- tlbfriendly -------------------------------------------------------------

TlbFriendlyWorkload::TlbFriendlyWorkload(const WorkloadConfig &cfg)
    : Workload(cfg)
{
    regions_.push_back({scaled(16 * kMiB), scaled(16 * kMiB)});
}

// One stream, +8 B, no random draws.
void
TlbFriendlyWorkload::fillAccesses(Rng &, MemAccess *out, std::size_t n)
{
    const std::uint64_t len = regions_[0].touchBytes;
    const Addr cursor_base = base(0).value;
    std::uint64_t cursor = cursor_;
    for (std::size_t i = 0; i < n; ++i) {
        cursor = wrap(cursor + 8, len);
        out[i] = {pc(0), Gva{cursor_base + cursor}};
    }
    cursor_ = cursor;
}

// --- factory / hog -----------------------------------------------------------

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadConfig &cfg)
{
    if (name == "svm")
        return std::make_unique<SvmWorkload>(cfg);
    if (name == "pagerank")
        return std::make_unique<PageRankWorkload>(cfg);
    if (name == "hashjoin")
        return std::make_unique<HashjoinWorkload>(cfg);
    if (name == "xsbench")
        return std::make_unique<XsbenchWorkload>(cfg);
    if (name == "bt")
        return std::make_unique<BtWorkload>(cfg);
    if (name == "tlbfriendly")
        return std::make_unique<TlbFriendlyWorkload>(cfg);
    fatal("unknown workload '%s'", name.c_str());
}

const std::vector<std::string> &
paperWorkloads()
{
    static const std::vector<std::string> names{
        "svm", "pagerank", "hashjoin", "xsbench", "bt"};
    return names;
}

Process &
hogMemory(Kernel &kernel, double fraction, Rng &rng)
{
    Process &hog = kernel.createProcess("hog");
    hog.defragEligible = false;
    PhysicalMemory &pm = kernel.physMem();
    const std::uint64_t target =
        static_cast<std::uint64_t>(pm.totalFrames() * fraction);

    // Pin scattered 2-4 MiB chunks at random huge-aligned physical
    // positions: free memory stays fragmented at coarse (> 2 MiB)
    // granularity, as the paper's hog does. The chunks are mapped
    // into one big hog VMA so exiting the process releases them.
    Vma &vma = hog.addressSpace().mmap(target * kPageSize + kHugeSize,
                                       VmaKind::Anon);
    Vpn next_vpn = vma.start().pageNumber();

    std::uint64_t pinned = 0;
    std::uint64_t attempts = 0;
    while (pinned < target && attempts < 4 * pm.totalFrames()) {
        ++attempts;
        const unsigned order =
            kHugeOrder + static_cast<unsigned>(rng.below(2)); // 2 or 4 MiB
        const std::uint64_t n = pagesInOrder(order);
        Pfn where = alignDown(rng.below(pm.totalFrames() - n), n);
        if (!pm.allocSpecific(where, order))
            continue;
        kernel.claimFrames(where, order, FrameOwner::Anon, hog.pid(),
                           next_vpn << kPageShift);
        // Map the chunk as huge leaves. Each leaf is unmapped and freed
        // on its own, so the chunk's one claim becomes one order-9
        // claim per leaf.
        kernel.splitClaim(hog.pageTable(), next_vpn, where, kHugeOrder);
        vma.allocatedPages += n;
        next_vpn += n;
        pinned += n;
    }
    kernel.counters().inc("hog.pinnedPages", pinned);
    return hog;
}

void
systemChurn(Kernel &kernel, std::uint64_t islands, std::uint64_t seed)
{
    // One readahead window per island: each burst of long-lived
    // pages (log writes, dentry/inode slabs) lands wherever the
    // free-list heads point after the intervening allocation entropy
    // (modelled as list shuffles). With the stock allocator that is a
    // random free block each time, leaving unmovable islands all over
    // memory; CA machines are immune because the per-file Offset
    // packs the same pages into one contiguous run.
    File &log = kernel.createFile(islands * kReadaheadPages);
    PhysicalMemory &pm = kernel.physMem();
    if (kernel.policy().steersFilePlacement()) {
        // CA-style kernels pack the long-lived pages contiguously via
        // the per-file Offset: the churn leaves one tidy run.
        for (std::uint64_t i = 0; i < islands; ++i)
            kernel.readFile(log, i * kReadaheadPages, 1);
    } else {
        // Stock kernels leave each burst wherever allocation entropy
        // put the free-list heads — uniformly random over free memory
        // from the workload's perspective.
        Rng rng(seed);
        std::uint64_t placed = 0;
        std::uint64_t attempts = 0;
        while (placed < islands && attempts < 64 * islands) {
            ++attempts;
            Pfn at = alignDown(
                rng.below(pm.totalFrames() - kReadaheadPages),
                kReadaheadPages);
            if (!pm.allocSpecific(at, log2Floor(kReadaheadPages)))
                continue;
            for (std::uint64_t j = 0; j < kReadaheadPages; ++j) {
                kernel.claimFrames(at + j, 0, FrameOwner::PageCache,
                                   log.id(),
                                   (placed * kReadaheadPages + j) *
                                       kPageSize);
                log.install(placed * kReadaheadPages + j, at + j);
            }
            ++placed;
        }
    }
    kernel.counters().inc("churn.islands", islands);
}

} // namespace contig
