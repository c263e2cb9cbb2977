#include "phys/contiguity_map.hh"

#include "base/align.hh"
#include "base/logging.hh"
#include "obs/metrics.hh"

namespace contig
{

ContiguityMap::ContiguityMap(std::uint64_t block_pages)
    : blockPages_(block_pages)
{
    contig_assert(block_pages > 0, "block size must be positive");
}

void
ContiguityMap::onBlockFree(Pfn block_base)
{
    ++stats_.inserts;
    trackedPages_ += blockPages_;

    Pfn start = block_base;
    std::uint64_t pages = blockPages_;

    // Merge with a preceding cluster that ends exactly at block_base.
    auto next = clusters_.upper_bound(block_base);
    if (next != clusters_.begin()) {
        auto prev = std::prev(next);
        contig_assert(prev->first + prev->second <= block_base,
                      "block freed inside an existing cluster");
        if (prev->first + prev->second == block_base) {
            start = prev->first;
            pages += prev->second;
            ++stats_.merges;
            next = clusters_.erase(prev);
        }
    }
    // Merge with a following cluster that starts exactly at the end.
    if (next != clusters_.end() && next->first == block_base + blockPages_) {
        pages += next->second;
        ++stats_.merges;
        if (roverValid_ && rover_ == next->first)
            rover_ = start;
        clusters_.erase(next);
    }
    clusters_[start] = pages;
}

void
ContiguityMap::onBlockAllocated(Pfn block_base)
{
    ++stats_.removes;
    auto it = clusters_.upper_bound(block_base);
    contig_assert(it != clusters_.begin(),
                  "allocated block not tracked by contiguity map");
    --it;
    contig_assert(it->first <= block_base &&
                      block_base + blockPages_ <= it->first + it->second,
                  "allocated block not inside its cluster");

    const Pfn start = it->first;
    const std::uint64_t pages = it->second;
    const bool rover_here = roverValid_ && rover_ == start;
    clusters_.erase(it);
    trackedPages_ -= blockPages_;

    const std::uint64_t left = block_base - start;
    const std::uint64_t right = (start + pages) - (block_base + blockPages_);
    if (left > 0)
        clusters_[start] = left;
    if (right > 0)
        clusters_[block_base + blockPages_] = right;
    if (left > 0 && right > 0)
        ++stats_.splits;

    if (rover_here)
        rover_ = right > 0 ? block_base + blockPages_
                           : (left > 0 ? start : rover_);
    if (clusters_.empty())
        roverValid_ = false;
}

ContiguityMap::Map::const_iterator
ContiguityMap::roverIter() const
{
    if (clusters_.empty())
        return clusters_.end();
    if (!roverValid_)
        return clusters_.begin();
    // The rover may point into the middle of a cluster (just past the
    // previous placement's reservation): find the cluster containing
    // it, else the next one (end() when the rover is past them all).
    auto it = clusters_.upper_bound(rover_);
    if (it != clusters_.begin()) {
        auto prev = std::prev(it);
        if (rover_ < prev->first + prev->second)
            return prev;
    }
    return it;
}

void
ContiguityMap::advanceRover(Pfn region_start, std::uint64_t used)
{
    // True next-fit: placements resume from where the previous one
    // left off — *past its reservation* — so consecutive placement
    // requests (other VMAs, page-cache readahead, other processes)
    // are steered away from the region a previous placement is still
    // filling on demand (the racing deferral of §III-C).
    rover_ = region_start + alignUp(used, blockPages_);
    roverValid_ = true;
}

std::optional<Cluster>
ContiguityMap::placeNextFit(std::uint64_t req_pages)
{
    ++stats_.placements;

    // Ring scan from the rover: pass 0 scans [start, end), pass 1
    // wraps to begin() and stops where pass 0 began, so every cluster
    // is visited exactly once.
    const Map::const_iterator start = roverIter();
    Cluster best{0, 0};
    bool rover_partial = start != clusters_.end();
    for (int pass = 0; pass < 2; ++pass) {
        auto it = pass == 0 ? start : clusters_.begin();
        const auto stop = pass == 0 ? clusters_.end() : start;
        for (; it != stop; ++it) {
            ++stats_.placementScanSteps;
            // For the cluster containing the rover, only the part at
            // and after the rover is considered (we "left off" there).
            Pfn usable_start = it->first;
            std::uint64_t usable_pages = it->second;
            if (rover_partial && roverValid_ && rover_ > it->first &&
                rover_ < it->first + it->second) {
                usable_start = rover_;
                usable_pages = it->first + it->second - rover_;
            }
            rover_partial = false;

            if (usable_pages >= req_pages) {
                advanceRover(usable_start, req_pages);
                return Cluster{usable_start, usable_pages};
            }
            if (usable_pages > best.pages)
                best = Cluster{usable_start, usable_pages};
        }
    }

    // Nothing fits: next-fit settles for the largest region found.
    if (best.pages == 0)
        return std::nullopt;
    advanceRover(best.startPfn, best.pages);
    return best;
}

std::optional<Cluster>
ContiguityMap::placeBestFit(std::uint64_t req_pages) const
{
    if (clusters_.empty())
        return std::nullopt;
    Cluster best_fit{0, 0};
    Cluster largest{0, 0};
    for (const auto &kv : clusters_) {
        if (kv.second > largest.pages)
            largest = Cluster{kv.first, kv.second};
        if (kv.second >= req_pages &&
            (best_fit.pages == 0 || kv.second < best_fit.pages)) {
            best_fit = Cluster{kv.first, kv.second};
        }
    }
    return best_fit.pages > 0 ? best_fit : largest;
}

std::optional<Cluster>
ContiguityMap::largest() const
{
    if (clusters_.empty())
        return std::nullopt;
    Cluster largest{0, 0};
    for (const auto &kv : clusters_)
        if (kv.second > largest.pages)
            largest = Cluster{kv.first, kv.second};
    return largest;
}

std::vector<Cluster>
ContiguityMap::snapshot() const
{
    std::vector<Cluster> out;
    out.reserve(clusters_.size());
    for (const auto &kv : clusters_)
        out.push_back(Cluster{kv.first, kv.second});
    return out;
}

Log2Histogram
ContiguityMap::clusterSizeHistogram() const
{
    Log2Histogram hist;
    for (const auto &[start, len] : clusters_)
        hist.add(len, len);
    return hist;
}

bool
ContiguityMap::checkInvariants() const
{
    std::uint64_t pages = 0;
    Pfn prev_end = 0;
    bool first = true;
    for (const auto &[start, len] : clusters_) {
        if (len == 0 || len % blockPages_ != 0 || start % blockPages_ != 0)
            return false;
        // Clusters must be maximal: no two adjacent clusters may touch.
        if (!first && start <= prev_end)
            return false;
        prev_end = start + len;
        pages += len;
        first = false;
    }
    return pages == trackedPages_;
}

void
ContiguityMap::collectMetrics(obs::MetricSink &sink) const
{
    sink.counter("inserts", stats_.inserts);
    sink.counter("removes", stats_.removes);
    sink.counter("merges", stats_.merges);
    sink.counter("splits", stats_.splits);
    sink.counter("placements", stats_.placements);
    sink.counter("placement_scan_steps", stats_.placementScanSteps);
    sink.summary("clusters", static_cast<double>(clusterCount()));
    sink.summary("free_pages_tracked",
                 static_cast<double>(freePagesTracked()));
    Log2Histogram sizes;
    for (const auto &[start, len] : clusters_)
        sizes.add(len);
    sink.histogram("cluster_pages", sizes);
}

} // namespace contig
