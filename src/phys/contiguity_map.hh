/**
 * @file
 * The contiguity_map of CA paging (paper §III-B, Fig. 3): an indexing
 * structure on top of the buddy allocator's top-order free list that
 * records *unaligned* free contiguity at scales larger than the buddy
 * heap. Each entry (cluster) is a maximal run of physically adjacent
 * free top-order blocks. The map also hosts the next-fit rover used by
 * CA paging's placement policy, and a best-fit query used by the
 * offline "ideal paging" baseline.
 */

#ifndef CONTIG_PHYS_CONTIGUITY_MAP_HH
#define CONTIG_PHYS_CONTIGUITY_MAP_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace contig
{

namespace obs { class MetricSink; }

/** A maximal run of free top-order blocks: [startPfn, startPfn+pages). */
struct Cluster
{
    Pfn startPfn = 0;
    std::uint64_t pages = 0;
};

/** Statistics exported by a ContiguityMap instance. */
struct ContiguityMapStats
{
    std::uint64_t inserts = 0;
    std::uint64_t removes = 0;
    std::uint64_t merges = 0;
    std::uint64_t splits = 0;
    std::uint64_t placements = 0;
    std::uint64_t placementScanSteps = 0;
};

/**
 * Sorted-by-physical-address map of free clusters. The kernel keeps
 * one instance per zone (per NUMA node), mirroring the paper's
 * per-`struct zone` instance.
 */
class ContiguityMap
{
  public:
    /** @param block_pages Pages per top-order block (2^maxOrder). */
    explicit ContiguityMap(std::uint64_t block_pages);

    /** A top-order block at block_base became free. */
    void onBlockFree(Pfn block_base);

    /** A top-order block at block_base left the free list. */
    void onBlockAllocated(Pfn block_base);

    /**
     * Next-fit placement (paper §III-C): starting from the rover,
     * return the first cluster with at least req_pages free pages,
     * wrapping around once. If no cluster is large enough, return the
     * largest cluster seen. Advances the rover past the chosen
     * cluster so consecutive placements defer racing on one block.
     * Returns nullopt only if the map is empty.
     */
    std::optional<Cluster> placeNextFit(std::uint64_t req_pages);

    /**
     * Best-fit placement: the smallest cluster that fits, or the
     * largest overall. Does not move the rover (used by IdealPolicy's
     * offline assignment).
     */
    std::optional<Cluster> placeBestFit(std::uint64_t req_pages) const;

    /** Largest cluster currently tracked. */
    std::optional<Cluster> largest() const;

    std::uint64_t clusterCount() const { return clusters_.size(); }
    std::uint64_t freePagesTracked() const { return trackedPages_; }

    /** Snapshot of all clusters in address order. */
    std::vector<Cluster> snapshot() const;

    /**
     * Cluster-size distribution, weighted by pages (bucket i holds
     * the pages living in clusters of [2^i, 2^(i+1)) pages) — the
     * cluster CDF the observatory samples per tick.
     */
    Log2Histogram clusterSizeHistogram() const;

    const ContiguityMapStats &stats() const { return stats_; }

    /** Report counters, cluster point values and size histogram. */
    void collectMetrics(obs::MetricSink &sink) const;

    /** Consistency check for the property tests. */
    bool checkInvariants() const;

  private:
    using Map = std::map<Pfn, std::uint64_t>; // start -> pages

    Map::const_iterator roverIter() const;
    void advanceRover(Pfn region_start, std::uint64_t used);

    std::uint64_t blockPages_;
    Map clusters_;
    std::uint64_t trackedPages_ = 0;
    /** Next-fit rover: where the previous placement left off. */
    Pfn rover_ = 0;
    bool roverValid_ = false;
    ContiguityMapStats stats_;
};

} // namespace contig

#endif // CONTIG_PHYS_CONTIGUITY_MAP_HH
