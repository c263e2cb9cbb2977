#include "policies/ingens.hh"

#include "mm/kernel.hh"
#include "mm/migrate.hh"

namespace contig
{

IngensPolicy::IngensPolicy(const IngensConfig &cfg) : cfg_(cfg) {}

AllocResult
IngensPolicy::allocate(Kernel &kernel, Process &proc, Vma &vma, Vpn vpn,
                       unsigned order)
{
    (void)vma;
    (void)vpn;
    return buddyAlloc(kernel, order, proc.homeNode());
}

void
IngensPolicy::onTick(Kernel &kernel)
{
    // khugepaged-like scan: promote up to promotionsPerTick huge
    // regions whose 4 KiB utilization crosses the threshold.
    unsigned budget = cfg_.promotionsPerTick;
    const std::uint64_t huge_pages = pagesInOrder(kHugeOrder);
    const auto needed = static_cast<std::uint64_t>(
        cfg_.utilizationThreshold * huge_pages);

    kernel.forEachProcess([&](Process &proc) {
        if (budget == 0)
            return;
        proc.addressSpace().forEachVma([&](Vma &vma) {
            if (budget == 0 || vma.kind() == VmaKind::File)
                return;
            ++stats_.scans;
            // Regions in address order; hugeTouched stays empty until
            // the VMA's first touch. The count and the huge-mapped
            // tests are both pure, so testing the cheap count first
            // visits and promotes exactly the regions a bitmap rescan
            // would.
            for (std::uint64_t r = 0; r < vma.hugeTouched.size() && budget > 0;
                 ++r) {
                if (vma.hugeTouched[r] < needed)
                    continue;
                // Skip regions already huge-mapped.
                const Vpn base = vma.hugeRegionBase(r);
                auto m = proc.pageTable().lookup(base);
                if (m && m->order == kHugeOrder)
                    continue;
                if (promoteHuge(kernel, proc, base)) {
                    ++stats_.promotions;
                    --budget;
                } else {
                    ++stats_.promotionFailures;
                }
            }
        });
    });
}

} // namespace contig
