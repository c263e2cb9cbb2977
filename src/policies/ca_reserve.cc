#include "policies/ca_reserve.hh"

#include <algorithm>

#include "base/align.hh"
#include "mm/kernel.hh"

namespace contig
{

CaReservePolicy::CaReservePolicy(const CaPagingConfig &cfg)
    : CaPagingPolicy(cfg)
{}

bool
CaReservePolicy::overlapsReservation(Pfn start, std::uint64_t pages,
                                     std::uint64_t ignore_owner) const
{
    for (const auto &[owner, r] : reservations_) {
        if (owner == ignore_owner)
            continue;
        if (start < r.start + r.pages && r.start < start + pages)
            return true;
    }
    return false;
}

std::uint64_t
CaReservePolicy::reservedPages() const
{
    std::uint64_t total = 0;
    for (const auto &kv : reservations_)
        total += kv.second.pages;
    return total;
}

AllocResult
CaReservePolicy::place(Kernel &kernel, NodeId home,
                       std::uint64_t req_pages, unsigned order,
                       std::uint64_t owner)
{
    AllocResult res;
    PhysicalMemory &pm = kernel.physMem();

    // Gather candidate sub-regions: free clusters minus the parts
    // under someone else's reservation.
    struct Candidate
    {
        Pfn start;
        std::uint64_t pages;
    };
    std::vector<Candidate> cands;
    const unsigned n = pm.numNodes();
    for (unsigned i = 0; i < n; ++i) {
        const Zone &zone = pm.zone((home + i) % n);
        for (const Cluster &c : zone.contigMap().snapshot()) {
            // Carve the cluster around reserved intervals.
            Pfn at = c.startPfn;
            const Pfn end = c.startPfn + c.pages;
            while (at < end) {
                // Find the next reservation intersecting [at, end).
                Pfn next_res = end;
                Pfn next_res_end = end;
                for (const auto &[o, r] : reservations_) {
                    if (o == owner)
                        continue;
                    const Pfn rs = std::max<Pfn>(r.start, at);
                    if (rs < next_res && r.start + r.pages > at &&
                        r.start < end) {
                        next_res = std::max<Pfn>(r.start, at);
                        next_res_end =
                            std::min<Pfn>(r.start + r.pages, end);
                    }
                }
                if (next_res > at)
                    cands.push_back(Candidate{at, next_res - at});
                if (next_res >= end)
                    break;
                at = next_res_end;
            }
        }
    }
    if (cands.empty()) {
        if (auto pfn = pm.alloc(order, home))
            res.pfn = *pfn;
        else
            res.fail =
                order > 0 ? AllocFail::NoHugeBlock : AllocFail::Oom;
        return res;
    }

    // Next-fit over the candidates using our own rover; the candidate
    // containing the rover is clipped to its part at/after it, like
    // the base contiguity map's mid-cluster rover.
    std::sort(cands.begin(), cands.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.start < b.start;
              });
    std::size_t begin = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        Candidate &c = cands[i];
        if (c.start + c.pages <= rover_) {
            begin = i + 1;
            continue;
        }
        if (c.start < rover_) {
            c.pages = c.start + c.pages - rover_;
            c.start = rover_;
        }
        begin = i;
        break;
    }
    if (begin >= cands.size())
        begin = 0;
    Candidate chosen_val{0, 0};
    const Candidate *chosen = nullptr;
    const Candidate *largest = nullptr;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const Candidate &c = cands[(begin + i) % cands.size()];
        if (!largest || c.pages > largest->pages)
            largest = &c;
        if (c.pages >= req_pages) {
            chosen = &c;
            break;
        }
    }
    if (!chosen) {
        chosen = largest;
        ++rstats_.placementsDeflected;
    }
    chosen_val = *chosen;
    chosen = &chosen_val;

    // The region must start order-aligned for the first allocation.
    Pfn start = alignUp(chosen->start, pagesInOrder(order));
    if (start + pagesInOrder(order) > chosen->start + chosen->pages) {
        if (auto pfn = pm.alloc(order, home))
            res.pfn = *pfn;
        else
            res.fail =
                order > 0 ? AllocFail::NoHugeBlock : AllocFail::Oom;
        return res;
    }
    if (!pm.allocSpecific(start, order)) {
        if (auto pfn = pm.alloc(order, home))
            res.pfn = *pfn;
        else
            res.fail =
                order > 0 ? AllocFail::NoHugeBlock : AllocFail::Oom;
        return res;
    }

    const std::uint64_t span = std::min(chosen->pages, req_pages);
    reservations_.emplace(owner, Reservation{start, span});
    ++rstats_.reservationsMade;
    rover_ = start + alignUp(span, pagesInOrder(kMaxOrder));
    res.pfn = start;
    return res;
}

void
CaReservePolicy::onMunmap(Kernel &kernel, Process &proc, Vma &vma)
{
    CaPagingPolicy::onMunmap(kernel, proc, vma);
    const auto removed =
        reservations_.erase(placementOwner(proc, vma));
    rstats_.reservationsReleased += removed;
}

} // namespace contig
