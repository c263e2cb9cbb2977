#include "mm/policy.hh"

#include "mm/kernel.hh"
#include "obs/metrics.hh"

namespace contig
{

const char *
allocFailName(AllocFail f)
{
    switch (f) {
      case AllocFail::None: return "ok";
      case AllocFail::NoHugeBlock: return "no_huge_block";
      case AllocFail::Oom: return "oom";
    }
    return "?";
}

AllocResult
buddyAlloc(Kernel &kernel, unsigned order, NodeId node)
{
    AllocResult res;
    if (auto pfn = kernel.physMem().alloc(order, node))
        res.pfn = *pfn;
    else
        res = AllocResult::failure(order);
    return res;
}

void
AllocationPolicy::noteAllocFail(AllocFail f)
{
    if (f == AllocFail::NoHugeBlock)
        ++failCounts_.noHugeBlock;
    else if (f == AllocFail::Oom)
        ++failCounts_.oom;
}

void
AllocationPolicy::collectFailMetrics(obs::MetricSink &sink) const
{
    sink.counter("fallback.no_huge_block", failCounts_.noHugeBlock);
    sink.counter("fallback.oom", failCounts_.oom);
}

AllocResult
AllocationPolicy::allocateFilePage(Kernel &kernel, File &file,
                                   std::uint64_t file_page)
{
    (void)file;
    (void)file_page;
    return buddyAlloc(kernel, 0, 0);
}

AllocResult
DefaultThpPolicy::allocate(Kernel &kernel, Process &proc, Vma &vma,
                           Vpn vpn, unsigned order)
{
    (void)vma;
    (void)vpn;
    return buddyAlloc(kernel, order, proc.homeNode());
}

AllocResult
Base4kPolicy::allocate(Kernel &kernel, Process &proc, Vma &vma, Vpn vpn,
                       unsigned order)
{
    (void)vma;
    (void)vpn;
    return buddyAlloc(kernel, order, proc.homeNode());
}

} // namespace contig
