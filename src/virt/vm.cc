#include "virt/vm.hh"

#include <vector>

#include "base/logging.hh"
#include "obs/observatory.hh"

namespace contig
{

VirtualMachine::VirtualMachine(Kernel &host,
                               std::unique_ptr<AllocationPolicy> guest_policy,
                               const VmConfig &cfg)
    : host_(host)
{
    // VM geometry joins the reproducibility record (the guest
    // kernel's own knobs are noted by its Kernel ctor under the
    // "guest." prefix).
    obs::RunInfo &ri = obs::RunInfo::global();
    ri.count("vm.instances");
    ri.note("vm.guest_bytes_per_node", cfg.guestBytesPerNode);
    ri.note("vm.guest_nodes", static_cast<std::uint64_t>(cfg.guestNodes));

    // The backing process and its GuestRam VMA (qemu's anonymous
    // guest-memory region).
    backing_ = &host_.createProcess("vm-backing");
    const std::uint64_t ram_bytes =
        cfg.guestBytesPerNode * cfg.guestNodes;
    ramVma_ = &backing_->addressSpace().mmap(ram_bytes, VmaKind::GuestRam);
    host_.policy().onMmap(host_, *backing_, *ramVma_);

    // The guest kernel sees [0, ram_bytes) as its physical space.
    KernelConfig gk = cfg.guestKernel;
    gk.phys.bytesPerNode = cfg.guestBytesPerNode;
    gk.phys.numNodes = cfg.guestNodes;
    // Keep guest metrics apart from the host kernel's, unless the
    // caller already chose a distinct prefix.
    if (gk.metricsPrefix == "kernel")
        gk.metricsPrefix = "guest";
    guest_ = std::make_unique<Kernel>(gk, std::move(guest_policy));

    // Nested faults: first allocation of guest frames touches the
    // corresponding host pages of the backing VMA. TouchNote::Origins
    // is exactly the backing access shape: one full touch per huge
    // stride (the host fault maps at least 4 KiB and, with THP,
    // usually 2 MiB at a time), then a sweep faulting any page still
    // unbacked.
    guest_->backingHook = [this](Pfn gfn, unsigned order) {
        FaultRequest span;
        span.proc = backing_;
        span.vma = ramVma_;
        span.vpn = ramVma_->start().pageNumber() + gfn;
        span.pages = pagesInOrder(order);
        span.access = Access::Write;
        host_.faultEngine().handleRange(span, TouchNote::Origins);
    };
}

VirtualMachine::~VirtualMachine()
{
    guest_.reset();
    // Release guest RAM in the host.
    host_.exitProcess(*backing_);
}

void
VirtualMachine::syncShadow(PageTable &shadow, Vpn vpn, const Mapping &m,
                           bool present)
{
    // One VM exit per trapped guest PTE update.
    ++shadowExits_;
    if (!present) {
        if (shadow.lookup(vpn))
            shadow.unmap(vpn, m.order);
        return;
    }
    // Re-sync of an existing entry (permission/contiguity-bit update):
    // refresh the shadow leaf in place.
    if (auto existing = shadow.lookup(vpn); existing &&
                                            existing->valid()) {
        shadow.setWritable(vpn, m.writable, m.cow);
        shadow.setContigBit(vpn, m.contigBit);
        return;
    }
    auto nested = nestedLookup(m.pfn);
    if (!nested)
        return; // unbacked guest frame: shadow entry stays absent
    // The shadow leaf's grain is the smaller of the two dimensions.
    const unsigned order = std::min<unsigned>(m.order, nested->order);
    if (order == m.order) {
        shadow.map(vpn, nested->pfn, order, m.writable, m.cow);
        if (m.contigBit)
            shadow.setContigBit(vpn, true);
        return;
    }
    // Guest leaf larger than the host backing: split into host-grain
    // shadow leaves.
    const std::uint64_t n = pagesInOrder(m.order);
    const std::uint64_t step = pagesInOrder(order);
    for (std::uint64_t off = 0; off < n; off += step) {
        auto piece = nestedLookup(m.pfn + off);
        if (!piece)
            continue;
        shadow.map(vpn + off, piece->pfn, order, m.writable, m.cow);
    }
}

void
VirtualMachine::enableShadowPaging(Process &guest_proc)
{
    auto [it, fresh] = shadows_.emplace(
        guest_proc.pid(),
        std::make_unique<PageTable>(nullptr, nullptr,
                                    guest_proc.pageTable().levels()));
    contig_assert(fresh, "shadow paging already enabled for pid %u",
                  guest_proc.pid());
    PageTable *shadow = it->second.get();

    // Synchronize the leaves that already exist...
    std::vector<std::pair<Vpn, Mapping>> leaves;
    guest_proc.pageTable().forEachLeaf(
        [&](Vpn vpn, const Mapping &m) { leaves.emplace_back(vpn, m); });
    for (auto &[vpn, m] : leaves)
        syncShadow(*shadow, vpn, m, true);

    // ...and trap every future update.
    guest_proc.pageTable().setUpdateHook(
        [this, shadow](Vpn vpn, const Mapping &m, bool present) {
            syncShadow(*shadow, vpn, m, present);
        });
}

const PageTable &
VirtualMachine::shadowTable(const Process &guest_proc) const
{
    auto it = shadows_.find(guest_proc.pid());
    contig_assert(it != shadows_.end(),
                  "shadow paging not enabled for pid %u",
                  guest_proc.pid());
    return *it->second;
}

std::optional<Mapping>
VirtualMachine::nestedLookup(Pfn gfn) const
{
    auto m = backing_->pageTable().lookup(hostVpnFor(gfn));
    if (!m || !m->valid())
        return std::nullopt;
    // Adjust to the exact frame inside a huge host mapping.
    Mapping exact = *m;
    const Vpn leaf_base = hostVpnFor(gfn) & ~(pagesInOrder(m->order) - 1);
    exact.pfn = m->pfn + (hostVpnFor(gfn) - leaf_base);
    return exact;
}

void
VirtualMachine::nestedWalk(Pfn gfn, WalkTrace &trace) const
{
    backing_->pageTable().walk(hostVpnFor(gfn), trace);
    if (trace.hit) {
        const Vpn vpn = hostVpnFor(gfn);
        const Vpn leaf_base =
            vpn & ~(pagesInOrder(trace.mapping.order) - 1);
        trace.mapping.pfn += vpn - leaf_base;
    }
}

} // namespace contig
