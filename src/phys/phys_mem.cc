#include "phys/phys_mem.hh"

#include "base/align.hh"
#include "base/logging.hh"

namespace contig
{

PhysicalMemory::PhysicalMemory(const PhysMemConfig &cfg)
    : frames_(cfg.numNodes * (cfg.bytesPerNode >> kPageShift))
{
    contig_assert(cfg.numNodes >= 1, "need at least one NUMA node");
    const std::uint64_t frames_per_node = cfg.bytesPerNode >> kPageShift;
    contig_assert(
        frames_per_node % pagesInOrder(cfg.zone.maxOrder) == 0,
        "node size must be a multiple of the top-order block");
    for (unsigned n = 0; n < cfg.numNodes; ++n) {
        zones_.push_back(std::make_unique<Zone>(
            frames_, n, Pfn{n * frames_per_node}, frames_per_node,
            cfg.zone));
    }
}

Zone &
PhysicalMemory::zoneOf(Pfn pfn)
{
    for (auto &z : zones_)
        if (z->contains(pfn))
            return *z;
    panic("pfn %llu not in any zone", static_cast<unsigned long long>(pfn));
}

const Zone &
PhysicalMemory::zoneOf(Pfn pfn) const
{
    return const_cast<PhysicalMemory *>(this)->zoneOf(pfn);
}

std::optional<Pfn>
PhysicalMemory::alloc(unsigned order, NodeId node)
{
    const unsigned n = zones_.size();
    for (unsigned i = 0; i < n; ++i) {
        auto pfn = zones_[(node + i) % n]->buddy().alloc(order);
        if (pfn)
            return pfn;
    }
    return std::nullopt;
}

bool
PhysicalMemory::allocSpecific(Pfn pfn, unsigned order)
{
    return zoneOf(pfn).buddy().allocSpecific(pfn, order);
}

void
PhysicalMemory::free(Pfn pfn, unsigned order)
{
    zoneOf(pfn).buddy().free(pfn, order);
}

bool
PhysicalMemory::isFreePage(Pfn pfn) const
{
    if (pfn >= frames_.size())
        return false;
    return zoneOf(pfn).buddy().isFreePage(pfn);
}

std::uint64_t
PhysicalMemory::freePages() const
{
    std::uint64_t total = 0;
    for (const auto &z : zones_)
        total += z->buddy().freePages();
    return total;
}

std::vector<Cluster>
PhysicalMemory::freeClusters() const
{
    std::vector<Cluster> out;
    for (const auto &z : zones_) {
        auto clusters = z->contigMap().snapshot();
        out.insert(out.end(), clusters.begin(), clusters.end());
    }
    return out;
}

} // namespace contig
