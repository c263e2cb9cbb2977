/**
 * @file
 * Observatory snapshots: the cheap structured state captures the
 * StateSampler (obs/observatory.hh) takes at a fixed fault cadence.
 * One Snapshot records, per capture tick,
 *
 *  - per-zone buddy free-list counts and the free-memory
 *    fragmentation index (FMFI — Gorman's unusable free space index
 *    at the huge-page order),
 *  - the ContiguityMap cluster-size CDF (and optionally the full
 *    Fig. 9 free-block histogram),
 *  - per-VMA offset-run statistics (count / max / weighted-mean run
 *    length) in 1-D and nested 2-D dimensions,
 *  - the coverage metrics of §VI-A and the fault counters,
 *  - TLB/walker/SpOT counters when a TranslationSim is attached.
 *
 * Snapshots flatten into a FlatSnap (name -> value) for the JSONL
 * timeline export; consecutive snapshots are delta-encoded (changed
 * keys + removed keys) so long timelines stay small. The decode side
 * (TimelineRecord + applyRecord) is shared with tools/contig_inspect.
 */

#ifndef CONTIG_OBS_SNAPSHOT_HH
#define CONTIG_OBS_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "contig/analysis.hh"

namespace contig
{
namespace obs
{

/** One zone's allocator state at a capture tick. */
struct ZoneSnap
{
    unsigned node = 0;
    std::uint64_t freePages = 0;
    /** Free-list lengths indexed by order, [0, maxOrder]. */
    std::vector<std::uint64_t> freeBlocks;
    /** Unusable free space index at kHugeOrder (0 good, 1 bad). */
    double fmfi = 0.0;
    std::uint64_t clusterCount = 0;
    std::uint64_t largestClusterPages = 0;
    /** Cluster-size CDF (pages-weighted log2 buckets). */
    Log2Histogram clusterHist;
    /** Full Fig. 9 free-block histogram (optional: pricier scan). */
    bool hasFreeHist = false;
    Log2Histogram freeHist;
};

/** Offset-run statistics for one VMA in one dimension. */
struct VmaRunSnap
{
    std::string dim;            //!< "1d" (VA->PA) or "2d" (gVA->hPA)
    std::uint32_t pid = 0;
    std::uint32_t vmaId = 0;
    std::uint64_t pages = 0;    //!< pages covered by the runs
    std::uint64_t runs = 0;     //!< number of contiguous runs
    std::uint64_t maxRun = 0;   //!< longest run, pages
    /** Sum(len^2)/Sum(len): the run length a random page sits in. */
    double weightedMeanRun = 0.0;
};

/** Translation-pipeline counters (TranslationSim attachment). */
struct XlatSnap
{
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t walks = 0;
    std::uint64_t walkRefs = 0;
    std::uint64_t walkCycles = 0;
    std::uint64_t exposedCycles = 0;
    std::uint64_t spotCorrect = 0;
    std::uint64_t spotMispredicted = 0;
    std::uint64_t spotNoPrediction = 0;
    std::uint64_t spotFills = 0;
    double spotCoverage = 0.0;
    double spotAccuracy = 0.0;
};

/** One capture: everything the sampler saw at `tick`. */
struct Snapshot
{
    std::uint64_t seq = 0;  //!< capture index within this sampler
    std::uint64_t tick = 0; //!< simulated time (faults) at capture
    std::uint64_t faults = 0;
    std::uint64_t hugeFaults = 0;
    std::uint64_t cowFaults = 0;
    std::uint64_t fileFaults = 0;
    std::vector<ZoneSnap> zones;
    std::vector<VmaRunSnap> vmaRuns;
    bool hasCoverage = false;
    CoverageMetrics coverage;
    bool hasXlat = false;
    XlatSnap xlat;
    /**
     * Already-flat auxiliary keys folded verbatim into the timeline
     * stream: lock.<site>.* contention counters when lock stats are
     * on, attrib.* cost rollups when attribution is on, reclaim.*
     * pressure state on reclaim kernels. Live consumers
     * (tools/contig_top) read these.
     */
    std::map<std::string, double> extras;
};

/**
 * FMFI from per-order free-list counts (ZoneSnap::freeBlocks): the
 * fraction of free pages in blocks smaller than 2^order. Matches
 * BuddyAllocator::unusableFreeIndex on live state.
 */
double fmfiFromCounts(const std::vector<std::uint64_t> &counts,
                      unsigned order);

/**
 * Offset-run statistics per VMA: attribute every extracted segment
 * to the VMA containing its vpn and reduce to count/max/weighted
 * mean. `vma_spans` is (startVpn, endVpn, vmaId) per VMA, sorted.
 */
struct VmaSpan
{
    Vpn start = 0;
    Vpn end = 0;
    std::uint32_t vmaId = 0;
};

std::vector<VmaRunSnap> vmaRunStats(const std::vector<Seg> &segs,
                                    const std::vector<VmaSpan> &vma_spans,
                                    std::uint32_t pid,
                                    const std::string &dim);

// --- flat encoding --------------------------------------------------------

/** A snapshot flattened to stable metric names, for delta encoding. */
using FlatSnap = std::map<std::string, double>;

/** Changed-or-new keys plus removed keys between two FlatSnaps. */
struct FlatDelta
{
    FlatSnap set;
    std::vector<std::string> del;
};

FlatSnap flatten(const Snapshot &snap);
FlatDelta diffFlat(const FlatSnap &prev, const FlatSnap &next);
FlatSnap applyDelta(const FlatSnap &prev, const FlatDelta &delta);

// --- JSONL timeline records -----------------------------------------------

/**
 * One timeline line: a full flattened snapshot (`full`) or a delta
 * against the previous record of the same stream. Encoded as
 *
 *   {"stream":S,"domain":"...","seq":K,"tick":T,
 *    "kind":"full"|"delta","set":{...},"del":[...]}
 */
struct TimelineRecord
{
    std::uint64_t stream = 0;
    std::string domain;
    std::uint64_t seq = 0;
    std::uint64_t tick = 0;
    bool full = true;
    FlatSnap set;
    std::vector<std::string> del;
};

/** Encode one record as a single JSON line (no trailing newline). */
std::string encodeTimelineRecord(const TimelineRecord &rec);

/**
 * Decode one timeline line. Returns nullopt (and an error message,
 * if requested) on malformed input.
 */
std::optional<TimelineRecord>
decodeTimelineRecord(std::string_view line, std::string *err = nullptr);

/** Reconstruct the state after `rec`, given the state before it. */
FlatSnap applyRecord(const FlatSnap &prev, const TimelineRecord &rec);

} // namespace obs
} // namespace contig

#endif // CONTIG_OBS_SNAPSHOT_HH
