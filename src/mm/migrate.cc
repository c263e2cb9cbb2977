#include "mm/migrate.hh"

#include <utility>

#include "base/align.hh"
#include "base/logging.hh"
#include "mm/kernel.hh"
#include "obs/trace.hh"

namespace contig
{

MigrateResult
migrateLeaf(Kernel &kernel, Process &proc, Vpn vpn, Pfn dest_pfn)
{
    PageTable &pt = proc.pageTable();
    auto m = pt.lookup(vpn);
    if (!m || !m->valid())
        return MigrateResult::NotMapped;
    const unsigned order = m->order;
    const Vpn base = vpn & ~(pagesInOrder(order) - 1);
    contig_assert(isAligned(dest_pfn, pagesInOrder(order)),
                  "migration destination must be order-aligned");
    if (m->pfn == dest_pfn)
        return MigrateResult::AlreadyThere;

    PhysicalMemory &pm = kernel.physMem();
    if (pm.frame(m->pfn).refCount > 1)
        return MigrateResult::Shared;
    if (!pm.allocSpecific(dest_pfn, order))
        return MigrateResult::DestBusy;

    const std::uint64_t n = pagesInOrder(order);
    const Frame &src = pm.frame(m->pfn);
    kernel.claimFrames(dest_pfn, order, src.ownerKind, src.ownerId,
                       src.ownerVaddr);

    pt.unmap(base, order);
    pt.map(base, dest_pfn, order, m->writable, m->cow);
    if (m->contigBit)
        pt.setContigBit(base, true);
    for (std::uint64_t i = 0; i < n; ++i) {
        --pm.frame(m->pfn + i).mapCount;
        ++pm.frame(dest_pfn + i).mapCount;
    }
    Pfn old = m->pfn;
    kernel.putFrame(old, order);

    CONTIG_TRACE(obs::TraceEventKind::Migration, old, dest_pfn, n);
    kernel.counters().inc("migrate.pages", n);
    kernel.counters().inc("migrate.shootdowns");
    kernel.counters().inc("migrate.cycles",
                          kernel.config().copyCyclesPerPage * n +
                              kernel.config().faultBaseCycles);
    return MigrateResult::Done;
}

MigrateResult
swapLeaves(Kernel &kernel, Process &proc, Vpn vpn, Pfn dest_pfn)
{
    PageTable &pt = proc.pageTable();
    auto m = pt.lookup(vpn);
    if (!m || !m->valid())
        return MigrateResult::NotMapped;
    const unsigned order = m->order;
    const Vpn base = vpn & ~(pagesInOrder(order) - 1);
    if (m->pfn == dest_pfn)
        return MigrateResult::AlreadyThere;

    PhysicalMemory &pm = kernel.physMem();
    if (pm.frame(m->pfn).refCount > 1)
        return MigrateResult::Shared;

    // Identify the exchange partner: the destination block must be
    // one exclusive anonymous leaf of the same order.
    const Frame &df = pm.frame(dest_pfn);
    if (df.ownerKind != FrameOwner::Anon || df.refCount != 1)
        return MigrateResult::DestBusy;
    Process *other = kernel.findProcess(df.ownerId);
    if (!other)
        return MigrateResult::DestBusy;
    const Vpn other_vpn = Gva{df.ownerVaddr}.pageNumber();
    auto om = other->pageTable().lookup(other_vpn);
    if (!om || !om->valid() || om->order != order ||
        om->pfn != dest_pfn || om->cow) {
        return MigrateResult::DestBusy;
    }

    const Vpn other_base = other_vpn & ~(pagesInOrder(order) - 1);
    pt.unmap(base, order);
    other->pageTable().unmap(other_base, order);
    pt.map(base, dest_pfn, order, m->writable, m->cow);
    other->pageTable().map(other_base, m->pfn, order, om->writable,
                           om->cow);
    if (m->contigBit)
        pt.setContigBit(base, true);
    if (om->contigBit)
        other->pageTable().setContigBit(other_base, true);

    // Swap the owner metadata of the two blocks (mapcounts stay 1:1).
    const std::uint64_t n = pagesInOrder(order);
    for (std::uint64_t i = 0; i < n; ++i) {
        Frame &fa = pm.frame(m->pfn + i);
        Frame &fb = pm.frame(dest_pfn + i);
        std::swap(fa.ownerKind, fb.ownerKind);
        std::swap(fa.ownerId, fb.ownerId);
        std::swap(fa.ownerVaddr, fb.ownerVaddr);
        std::swap(fa.refCount, fb.refCount);
        std::swap(fa.mapCount, fb.mapCount);
    }

    CONTIG_TRACE(obs::TraceEventKind::Migration, m->pfn, dest_pfn, 2 * n);
    kernel.counters().inc("migrate.pages", 2 * n);
    kernel.counters().inc("migrate.shootdowns", 2);
    kernel.counters().inc("migrate.cycles",
                          3 * kernel.config().copyCyclesPerPage * n +
                              kernel.config().faultBaseCycles);
    return MigrateResult::Done;
}

bool
promoteHuge(Kernel &kernel, Process &proc, Vpn huge_vpn)
{
    contig_assert(isAligned(huge_vpn, pagesInOrder(kHugeOrder)),
                  "promotion region must be huge-aligned");
    PageTable &pt = proc.pageTable();
    PhysicalMemory &pm = kernel.physMem();
    const std::uint64_t n = pagesInOrder(kHugeOrder);

    // All 512 leaves must be exclusive 4 KiB anon mappings.
    std::vector<Pfn> old(n, kInvalidPfn);
    for (std::uint64_t i = 0; i < n; ++i) {
        auto m = pt.lookup(huge_vpn + i);
        if (!m || !m->valid() || m->order != 0 || m->cow)
            return false;
        if (pm.frame(m->pfn).refCount > 1)
            return false;
        old[i] = m->pfn;
    }

    auto huge = pm.alloc(kHugeOrder, proc.homeNode());
    if (!huge)
        return false;

    const Frame &src = pm.frame(old[0]);
    kernel.claimFrames(*huge, kHugeOrder, src.ownerKind, src.ownerId,
                       huge_vpn << kPageShift);
    for (std::uint64_t i = 0; i < n; ++i) {
        pt.unmap(huge_vpn + i, 0);
        --pm.frame(old[i]).mapCount;
        kernel.putFrame(old[i], 0);
    }
    pt.map(huge_vpn, *huge, kHugeOrder, true, false);
    for (std::uint64_t i = 0; i < n; ++i)
        ++pm.frame(*huge + i).mapCount;

    CONTIG_TRACE(obs::TraceEventKind::Promotion, huge_vpn, n);
    kernel.counters().inc("promote.pages", n);
    kernel.counters().inc("promote.cycles",
                          kernel.config().copyCyclesPerPage * n +
                              kernel.config().faultBaseCycles);
    return true;
}

} // namespace contig
