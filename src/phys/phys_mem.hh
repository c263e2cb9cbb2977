/**
 * @file
 * PhysicalMemory: a complete physical address space — the mem_map plus
 * one Zone per NUMA node. Instantiated once for the host machine
 * (hPA) and once per virtual machine (gPA), since a guest kernel runs
 * the same allocator over its guest-physical space.
 */

#ifndef CONTIG_PHYS_PHYS_MEM_HH
#define CONTIG_PHYS_PHYS_MEM_HH

#include <memory>
#include <optional>
#include <vector>

#include "phys/zone.hh"

namespace contig
{

/** Machine-level physical memory configuration. */
struct PhysMemConfig
{
    /** Bytes per NUMA node (must be a multiple of the top-order block). */
    std::uint64_t bytesPerNode = std::uint64_t{2} << 30;
    unsigned numNodes = 2;
    ZoneConfig zone;
};

/**
 * A physical address space: frames [0, totalFrames) split evenly into
 * per-node zones. Allocation requests carry a preferred node and fall
 * back to the next node when the preferred one is exhausted (the
 * "spans to the second NUMA node" behaviour the paper observes for BT).
 */
class PhysicalMemory
{
  public:
    explicit PhysicalMemory(const PhysMemConfig &cfg = {});

    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    unsigned numNodes() const { return zones_.size(); }
    std::uint64_t totalFrames() const { return frames_.size(); }
    std::uint64_t totalBytes() const { return totalFrames() * kPageSize; }

    FrameArray &frames() { return frames_; }
    const FrameArray &frames() const { return frames_; }
    Frame &frame(Pfn pfn) { return frames_[pfn]; }
    const Frame &frame(Pfn pfn) const { return frames_[pfn]; }

    Zone &zone(NodeId node) { return *zones_[node]; }
    const Zone &zone(NodeId node) const { return *zones_[node]; }

    /** The zone owning a PFN. */
    Zone &zoneOf(Pfn pfn);
    const Zone &zoneOf(Pfn pfn) const;

    /**
     * Allocate 2^order pages, preferring `node`, falling back to the
     * other nodes in round-robin order.
     */
    std::optional<Pfn> alloc(unsigned order, NodeId node = 0);

    /** Allocate the exact block [pfn, pfn+2^order); see BuddyAllocator. */
    bool allocSpecific(Pfn pfn, unsigned order);

    /** Free a block previously allocated at this order. */
    void free(Pfn pfn, unsigned order);

    /** True iff the base page at pfn is inside a free buddy block. */
    bool isFreePage(Pfn pfn) const;

    std::uint64_t freePages() const;

    /**
     * Aggregate free-cluster snapshot across all zones (for Fig. 9's
     * free-block distribution and the ideal baseline).
     */
    std::vector<Cluster> freeClusters() const;

  private:
    FrameArray frames_;
    std::vector<std::unique_ptr<Zone>> zones_;
};

} // namespace contig

#endif // CONTIG_PHYS_PHYS_MEM_HH
