#include "tlb/tlb.hh"

#include "base/logging.hh"
#include "obs/metrics.hh"

namespace contig
{

namespace
{

/** Largest power of two <= n (n >= 1). */
unsigned
prevPow2(unsigned n)
{
    unsigned p = 1;
    while (p * 2 <= n)
        p *= 2;
    return p;
}

} // namespace

Tlb::Tlb(const TlbConfig &cfg, unsigned page_order)
    : cfg_(cfg), pageOrder_(page_order), sets_(cfg.sets, cfg.ways)
{
    // The set index is tag & (sets - 1): a non-power-of-two set count
    // would silently alias sets together. Configs are user input, so
    // reject them cleanly rather than assert.
    if ((cfg.sets & (cfg.sets - 1)) != 0)
        fatal("TLB set count must be a power of two, got %u "
              "(round to %u or %u)",
              cfg.sets, prevPow2(cfg.sets), prevPow2(cfg.sets) * 2);
}

bool
Tlb::lookupRef(Vpn vpn)
{
    // The per-way scan, ways walked in order with an early exit. Must
    // stay out of line — XlatEngine::Reference measures the
    // historical call structure.
    ++stats_.lookups;
    const Vpn tag = tagOf(vpn);
    const unsigned set = setOf(vpn);
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        const unsigned lane = sets_.lane(set, w);
        if (sets_.tag(lane) == tag) {
            sets_.touch(lane);
            ++stats_.hits;
            return true;
        }
    }
    return false;
}

void
Tlb::fillRef(Vpn vpn)
{
    ++stats_.fills;
    const Vpn tag = tagOf(vpn);
    const unsigned set = setOf(vpn);
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        const unsigned lane = sets_.lane(set, w);
        if (sets_.tag(lane) == tag) {
            sets_.touch(lane); // refill of a present entry
            return;
        }
    }
    if (sets_.fill(set, tag))
        ++stats_.evictions;
}

TlbHierarchy::TlbHierarchy(const TlbHierConfig &cfg)
    : l1_4k_(cfg.l1_4k, 0), l1_2m_(cfg.l1_2m, kHugeOrder),
      l2_4k_({cfg.l2.sets, (cfg.l2.ways + 1) / 2}, 0),
      l2_2m_({cfg.l2.sets, (cfg.l2.ways + 1) / 2}, kHugeOrder)
{
    // Each page-size array gets half the unified budget; an odd way
    // count would round both halves up and quietly model a bigger L2
    // than configured.
    if (2 * ((cfg.l2.ways + 1) / 2) != cfg.l2.ways)
        fatal("unified L2 TLB way count must be even to split across "
              "page sizes, got %u (round to %u or %u)",
              cfg.l2.ways, cfg.l2.ways - 1, cfg.l2.ways + 1);
}

TlbLevel
TlbHierarchy::accessRef(Vpn vpn, unsigned order)
{
    Tlb &l1 = (order == kHugeOrder) ? l1_2m_ : l1_4k_;
    if (l1.lookupRef(vpn))
        return TlbLevel::L1;
    Tlb &l2 = (order == kHugeOrder) ? l2_2m_ : l2_4k_;
    if (l2.lookupRef(vpn)) {
        l1.fillRef(vpn); // promote to L1
        return TlbLevel::L2;
    }
    return TlbLevel::Miss;
}

void
TlbHierarchy::fillRef(Vpn vpn, unsigned order)
{
    Tlb &l1 = (order == kHugeOrder) ? l1_2m_ : l1_4k_;
    Tlb &l2 = (order == kHugeOrder) ? l2_2m_ : l2_4k_;
    l1.fillRef(vpn);
    l2.fillRef(vpn);
}

void
TlbHierarchy::flush()
{
    l1_4k_.flush();
    l1_2m_.flush();
    l2_4k_.flush();
    l2_2m_.flush();
}

void
Tlb::collectMetrics(obs::MetricSink &sink) const
{
    sink.counter("lookups", stats_.lookups);
    sink.counter("hits", stats_.hits);
    sink.counter("fills", stats_.fills);
    sink.counter("evictions", stats_.evictions);
}

void
TlbHierarchy::collectMetrics(obs::MetricSink &sink) const
{
    {
        obs::MetricSink::Scope s(sink, "l1_4k");
        l1_4k_.collectMetrics(sink);
    }
    {
        obs::MetricSink::Scope s(sink, "l1_2m");
        l1_2m_.collectMetrics(sink);
    }
    {
        obs::MetricSink::Scope s(sink, "l2_4k");
        l2_4k_.collectMetrics(sink);
    }
    {
        obs::MetricSink::Scope s(sink, "l2_2m");
        l2_2m_.collectMetrics(sink);
    }
}

} // namespace contig
