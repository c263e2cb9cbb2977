/**
 * @file
 * Reservation-based CA paging — the extension the paper defers to
 * future work (§III-D): "Under severe memory pressure, different
 * processes or VMAs may end up competing for the same scarce
 * contiguous physical blocks. To shield contiguity, CA paging could
 * employ reservation."
 *
 * This policy keeps CA paging's mechanisms unchanged but registers
 * every placement as a soft reservation [start, start + request):
 * later placement decisions (other VMAs, other processes, files)
 * skip reserved space, so a slowly-faulting VMA cannot have its
 * runway stolen. Reservations are soft — the buddy allocator will
 * still hand reserved frames to non-CA (fallback/kernel) allocations
 * under pressure — and are dropped at munmap.
 */

#ifndef CONTIG_POLICIES_CA_RESERVE_HH
#define CONTIG_POLICIES_CA_RESERVE_HH

#include <map>
#include <vector>

#include "policies/ca_paging.hh"

namespace contig
{

struct CaReserveStats
{
    std::uint64_t reservationsMade = 0;
    std::uint64_t reservationsReleased = 0;
    std::uint64_t placementsDeflected = 0; //!< steered off reserved space
};

class CaReservePolicy : public CaPagingPolicy
{
  public:
    explicit CaReservePolicy(const CaPagingConfig &cfg = {});

    std::string name() const override { return "ca-reserve"; }

    void onMunmap(Kernel &kernel, Process &proc, Vma &vma) override;

    const CaReserveStats &reserveStats() const { return rstats_; }

    /** Pages currently under reservation (tests). */
    std::uint64_t reservedPages() const;

  protected:
    /**
     * Reservation-aware placement: next-fit over the free clusters
     * minus other owners' reserved intervals, then reserve the chosen
     * region for `owner`. Overrides every CA placement (first fault,
     * sub-VMA re-placements, files).
     */
    AllocResult place(Kernel &kernel, NodeId home,
                      std::uint64_t req_pages, unsigned order,
                      std::uint64_t owner) override;

  private:
    struct Reservation
    {
        Pfn start;
        std::uint64_t pages;
    };

    bool overlapsReservation(Pfn start, std::uint64_t pages,
                             std::uint64_t ignore_owner) const;

    /** Active reservations keyed by owner (VMA id / file sentinel). */
    std::multimap<std::uint64_t, Reservation> reservations_;
    Pfn rover_ = 0;
    CaReserveStats rstats_;
};

} // namespace contig

#endif // CONTIG_POLICIES_CA_RESERVE_HH
