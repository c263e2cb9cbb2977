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
    : cfg_(cfg), pageOrder_(page_order),
      wayStride_(simd::padLanes(cfg.ways)),
      tags_(cfg.sets * simd::padLanes(cfg.ways), simd::kNoTag64),
      valid_(cfg.sets * simd::padLanes(cfg.ways), 0),
      lastUse_(cfg.sets * simd::padLanes(cfg.ways), 0),
      simd_(simd::enabled())
{
    contig_assert(cfg.sets > 0 && cfg.ways > 0, "degenerate TLB");
    // The set index is tag & (sets - 1): a non-power-of-two set count
    // would silently alias sets together. Configs are user input, so
    // reject them cleanly rather than assert.
    if ((cfg.sets & (cfg.sets - 1)) != 0)
        fatal("TLB set count must be a power of two, got %u "
              "(round to %u or %u)",
              cfg.sets, prevPow2(cfg.sets), prevPow2(cfg.sets) * 2);
}

void
Tlb::fillVictim(unsigned base, Vpn tag)
{
    contig_assert(tag != simd::kNoTag64, "vpn tag collides with the "
                  "invalid-lane sentinel");
    // First invalid way wins; otherwise the strict-minimum lastUse
    // among the valid ways (= earliest way on ties), exactly as the
    // pre-SoA single-pass scan chose.
    unsigned victim = 0;
    bool haveInvalid = false;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (!valid_[base + w]) {
            victim = w;
            haveInvalid = true;
            break;
        }
        if (lastUse_[base + w] < lastUse_[base + victim])
            victim = w;
    }
    if (!haveInvalid)
        ++stats_.evictions;
    valid_[base + victim] = 1;
    tags_[base + victim] = tag;
    lastUse_[base + victim] = ++clock_;
}

bool
Tlb::lookupRef(Vpn vpn)
{
    // The pre-SoA per-way scan, verbatim modulo the lane indexing:
    // valid checked explicitly, ways walked in order with an early
    // exit. Must stay out of line — XlatEngine::Reference measures
    // the historical call structure.
    ++stats_.lookups;
    const Vpn tag = tagOf(vpn);
    const unsigned base = setOf(vpn) * wayStride_;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (valid_[base + w] && tags_[base + w] == tag) {
            lastUse_[base + w] = ++clock_;
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
    const unsigned base = setOf(vpn) * wayStride_;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (valid_[base + w] && tags_[base + w] == tag) {
            lastUse_[base + w] = ++clock_; // refill of a present entry
            return;
        }
    }
    fillVictim(base, tag);
}

void
Tlb::flush()
{
    // Invalidate by restoring the tag-lane sentinel; lastUse is kept,
    // matching the pre-SoA flush (victim selection never reads the
    // lastUse of an invalid way).
    for (std::size_t i = 0; i < valid_.size(); ++i) {
        valid_[i] = 0;
        tags_[i] = simd::kNoTag64;
    }
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
    ++accesses_;
    Tlb &l1 = (order == kHugeOrder) ? l1_2m_ : l1_4k_;
    if (l1.lookupRef(vpn))
        return TlbLevel::L1;
    Tlb &l2 = (order == kHugeOrder) ? l2_2m_ : l2_4k_;
    if (l2.lookupRef(vpn)) {
        l1.fillRef(vpn); // promote to L1
        return TlbLevel::L2;
    }
    ++l2Misses_;
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
TlbHierarchy::setSimd(bool simd)
{
    l1_4k_.setSimd(simd);
    l1_2m_.setSimd(simd);
    l2_4k_.setSimd(simd);
    l2_2m_.setSimd(simd);
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
    sink.counter("accesses", accesses_);
    sink.counter("l2_misses", l2Misses_);
}

} // namespace contig
