#include "tlb/translation_sim.hh"

#include "base/logging.hh"
#include "base/simd.hh"
#include "obs/attribution.hh"
#include "obs/trace.hh"

namespace contig
{

namespace
{

const char *
schemeToken(XlatScheme s)
{
    switch (s) {
      case XlatScheme::Base: return "base";
      case XlatScheme::Spot: return "spot";
      case XlatScheme::Rmm: return "rmm";
      case XlatScheme::Ds: return "ds";
    }
    return "?";
}

} // namespace

TranslationSim::TranslationSim(const XlatConfig &cfg, const PageTable &pt)
    : cfg_(cfg), tlb_(cfg.tlb),
      walker_(std::make_unique<Walker>(pt, cfg.walker)),
      chunkPhase_(obs::Phase::bind(obs::MetricRegistry::global(),
                                   "xlat.chunk"))
{
    init();
}

TranslationSim::TranslationSim(const XlatConfig &cfg,
                               const PageTable &guest_pt,
                               const VirtualMachine &vm)
    : cfg_(cfg), tlb_(cfg.tlb),
      walker_(std::make_unique<Walker>(guest_pt, vm, cfg.walker)),
      chunkPhase_(obs::Phase::bind(obs::MetricRegistry::global(),
                                   "xlat.chunk"))
{
    init();
}

bool
TranslationSim::simdActive() const
{
    return cfg_.engine == XlatEngine::Batched && simd::enabled();
}

void
TranslationSim::init()
{
    if (cfg_.scheme == XlatScheme::Spot)
        spot_ = std::make_unique<SpotEngine>(cfg_.spot);
    // Probe-kernel selection: the reference engine pins the scalar
    // loops end to end; the batched engine takes AVX2 when the CPU
    // supports it and it is not forced off. Identical results either
    // way.
    const bool use_simd = simdActive();
    tlb_.setSimd(use_simd);
    walker_->setSimd(use_simd);
    if (spot_)
        spot_->setSimd(use_simd);
    if (obs::AttribRegistry::enabled()) {
        // Tables from different schemes/dimensions accumulate under
        // distinct labels in the registry, so one bench run produces a
        // side-by-side comparable attribution section.
        attrib_ = std::make_unique<obs::XlatAttribution>(
            std::string(schemeToken(cfg_.scheme)) +
            (walker_->virtualized() ? "_2d" : "_1d"));
    }
    metricSource_ = obs::MetricSource(
        obs::MetricRegistry::global(), "xlat",
        [this](obs::MetricSink &sink) { collectMetrics(sink); });
}

TranslationSim::~TranslationSim()
{
    if (attrib_)
        obs::AttribRegistry::global().absorbXlat(*attrib_);
}

void
TranslationSim::setContigIndex(
    std::shared_ptr<const obs::ContigClassIndex> idx)
{
    if (attrib_)
        attrib_->setIndex(std::move(idx));
}

void
TranslationSim::noteChunk(std::uint64_t chunk)
{
    if (attrib_)
        attrib_->setChunk(chunk);
}

void
TranslationSim::collectMetrics(obs::MetricSink &sink) const
{
    sink.counter("accesses", stats_.accesses);
    sink.counter("l1_hits", stats_.l1Hits);
    sink.counter("l2_hits", stats_.l2Hits);
    sink.counter("walks", stats_.walks);
    sink.counter("walk_refs", stats_.walkRefs);
    sink.counter("walk_cycles", stats_.walkCycles);
    sink.counter("exposed_cycles", stats_.exposedCycles);
    sink.counter("range_hits", stats_.rangeHits);
    sink.counter("segment_hits", stats_.segmentHits);
    {
        obs::MetricSink::Scope s(sink, "tlb");
        sink.summary("l2_miss_latency", l2MissLatency_);
        tlb_.collectMetrics(sink);
    }
    {
        obs::MetricSink::Scope s(sink, "walker");
        walker_->collectMetrics(sink);
    }
    if (spot_) {
        obs::MetricSink::Scope s(sink, "spot");
        spot_->collectMetrics(sink);
    }
    if (rangeTlb_) {
        obs::MetricSink::Scope s(sink, "range_tlb");
        rangeTlb_->collectMetrics(sink);
    }
    if (attrib_) {
        obs::MetricSink::Scope s(sink, "attrib");
        attrib_->collectMetrics(sink);
    }
}

void
TranslationSim::setSegments(std::vector<Seg> segs)
{
    if (cfg_.scheme == XlatScheme::Rmm) {
        rangeTable_ = std::make_unique<RangeTable>(std::move(segs));
        rangeTlb_ =
            std::make_unique<RangeTlb>(cfg_.rangeTlb, *rangeTable_);
    } else if (cfg_.scheme == XlatScheme::Ds) {
        // Dual direct mode: the workload's primary regions translate
        // through the segment registers. Merge the mapped segments
        // into maximal virtual spans (physical contiguity is the
        // host-side segment reservation the scheme assumes).
        std::sort(segs.begin(), segs.end(),
                  [](const Seg &a, const Seg &b) {
                      return a.vpn < b.vpn;
                  });
        for (const Seg &s : segs) {
            if (!segments_.empty()) {
                DirectSegment &last = segments_.back();
                if (last.base() + last.pages() == s.vpn) {
                    segments_.back() = DirectSegment(
                        last.base(), last.pages() + s.pages);
                    continue;
                }
            }
            segments_.emplace_back(s.vpn, s.pages);
        }
    }
}

/**
 * The L2-miss slow path, shared by both engines: verification walk,
 * scheme handling, cost accounting and the TLB refill. Everything in
 * here is per-event state the golden-equivalence test pins, so the
 * two engines call the exact same code; only the hit path differs.
 */
template <XlatScheme S, bool Virt>
void
TranslationSim::missPath(const MemAccess &a, Vpn vpn)
{
    CONTIG_TRACE(obs::TraceEventKind::TlbL2Miss, vpn);
    if constexpr (S == XlatScheme::Spot)
        spot_->predict(a.pc);
    const WalkResult walk = walker_->walk(vpn);
    stats_.walkCycles += walk.cycles;
    contig_assert(walk.hit, "access to unmapped va 0x%llx",
                  static_cast<unsigned long long>(a.va.value));
    if constexpr (Virt)
        CONTIG_TRACE(obs::TraceEventKind::NestedWalk, vpn, walk.refs,
                     walk.cycles);

    ++stats_.walks;
    stats_.walkRefs += walk.refs;

    Cycles exposed = walk.cycles;
    bool schemeHid = false; // walk cost hidden by SpOT / range hit
    if constexpr (S == XlatScheme::Spot) {
        const bool contig_ok =
            Virt ? (walk.guestContigBit && walk.nestedContigBit)
                 : walk.guestContigBit;
        SpotOutcome out = spot_->update(a.pc, walk.offset, contig_ok);
        switch (out) {
          case SpotOutcome::Correct:
            ++stats_.spotCorrect;
            CONTIG_TRACE(obs::TraceEventKind::SpotCorrect, a.pc,
                         static_cast<std::uint64_t>(walk.offset));
            exposed = 0; // walk latency fully hidden
            schemeHid = true;
            break;
          case SpotOutcome::Mispredicted:
            ++stats_.spotMispredicted;
            CONTIG_TRACE(obs::TraceEventKind::SpotMispredict, a.pc,
                         static_cast<std::uint64_t>(walk.offset));
            exposed = walk.cycles + cfg_.spot.flushPenaltyCycles;
            break;
          case SpotOutcome::NoPrediction:
            ++stats_.spotNoPrediction;
            CONTIG_TRACE(obs::TraceEventKind::SpotNoPredict, a.pc);
            break;
        }
    } else if constexpr (S == XlatScheme::Rmm) {
        contig_assert(rangeTlb_, "Rmm scheme without segments");
        if (rangeTlb_->access(vpn)) {
            ++stats_.rangeHits;
            exposed = 0; // range hit: translation without a walk
            schemeHid = true;
        }
    }
    // Base and Ds non-segment accesses pay the normal walk.

    stats_.exposedCycles += exposed;
    l2MissLatency_.add(static_cast<double>(exposed));
    if (attrib_) {
        obs::XlatOutcome out =
            walk.pscHit ? obs::XlatOutcome::PscWalk
                        : obs::XlatOutcome::FullWalk;
        if (schemeHid) {
            out = S == XlatScheme::Spot ? obs::XlatOutcome::SpotHit
                                        : obs::XlatOutcome::RangeHit;
        }
        attrib_->record(out, vpn, walk.cycles, exposed);
    }
    tlb_.fill(vpn, walk.mapping.order);
}

template <XlatScheme S, bool Virt>
void
TranslationSim::runChunkRef(const MemAccess *acc, std::size_t n)
{
    // The historical inner loop: per-access statistics writes and
    // out-of-line scalar TLB probes (accessRef). Kept as the golden
    // reference the batched loop is measured against.
    for (std::size_t i = 0; i < n; ++i) {
        const MemAccess &a = acc[i];
        ++stats_.accesses;
        const Vpn vpn = a.va.pageNumber();

        // Direct Segments: segment accesses bypass the TLB path
        // entirely. Only the Ds scheme ever installs segments, so the
        // other schemes' loops compile the check away.
        if constexpr (S == XlatScheme::Ds) {
            if (!segments_.empty()) {
                auto it = std::upper_bound(
                    segments_.begin(), segments_.end(), vpn,
                    [](Vpn v, const DirectSegment &s) {
                        return v < s.base();
                    });
                if (it != segments_.begin() &&
                    std::prev(it)->contains(vpn)) {
                    ++stats_.segmentHits;
                    if (attrib_)
                        attrib_->record(obs::XlatOutcome::SegmentHit,
                                        vpn, 0, 0);
                    continue;
                }
            }
        }

        // We do not know the mapped page size before looking it up;
        // probe the hierarchy as hardware does, trying both sizes.
        // The walk below re-fills with the true order.
        TlbLevel lvl = tlb_.accessRef(vpn, kHugeOrder);
        if (lvl == TlbLevel::Miss)
            lvl = tlb_.accessRef(vpn, 0);
        if (lvl == TlbLevel::L1) {
            ++stats_.l1Hits;
            if (attrib_)
                attrib_->record(obs::XlatOutcome::TlbHit, vpn, 0, 0);
            continue;
        }
        if (lvl == TlbLevel::L2) {
            ++stats_.l2Hits;
            if (attrib_)
                attrib_->record(obs::XlatOutcome::TlbHit, vpn, 0, 0);
            continue;
        }

        // L2 miss: the verification/page walk always happens.
        missPath<S, Virt>(a, vpn);
    }
}

template <XlatScheme S, bool Virt>
void
TranslationSim::runChunkBatched(const MemAccess *acc, std::size_t n)
{
    // Stage 1: peel the vpn lane off the AoS access records, so the
    // hot loop streams one sequential 8-byte lane and only touches
    // the full record again on the rare L2 miss.
    if (vpnLane_.size() < n)
        vpnLane_.resize(n);
    Vpn *const vpns = vpnLane_.data();
    for (std::size_t i = 0; i < n; ++i)
        vpns[i] = acc[i].va.pageNumber();

    // Stage 2: probe pipeline. Hit counters sink into chunk-local
    // accumulators (flushed once below) so the dominant L1-hit path
    // does no member-counter stores; everything rarer goes through
    // the shared missPath and writes stats_ directly.
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    obs::XlatAttribution *const at = attrib_.get();
    for (std::size_t i = 0; i < n; ++i) {
        const Vpn vpn = vpns[i];

        if constexpr (S == XlatScheme::Ds) {
            if (!segments_.empty()) {
                auto it = std::upper_bound(
                    segments_.begin(), segments_.end(), vpn,
                    [](Vpn v, const DirectSegment &s) {
                        return v < s.base();
                    });
                if (it != segments_.begin() &&
                    std::prev(it)->contains(vpn)) {
                    ++stats_.segmentHits;
                    if (at)
                        at->record(obs::XlatOutcome::SegmentHit,
                                   vpn, 0, 0);
                    continue;
                }
            }
        }

        TlbLevel lvl = tlb_.access(vpn, kHugeOrder);
        if (lvl == TlbLevel::Miss)
            lvl = tlb_.access(vpn, 0);
        if (lvl != TlbLevel::Miss) {
            l1_hits += lvl == TlbLevel::L1;
            l2_hits += lvl == TlbLevel::L2;
            if (at)
                at->record(obs::XlatOutcome::TlbHit, vpn, 0, 0);
            continue;
        }

        missPath<S, Virt>(acc[i], vpn);
    }

    stats_.accesses += n;
    stats_.l1Hits += l1_hits;
    stats_.l2Hits += l2_hits;
}

void
TranslationSim::accessChunk(const MemAccess *a, std::size_t n)
{
    // The chunk phase observes wall time plus the modelled walk-cycle
    // delta the chunk added (the old per-walk timer cost two clock
    // reads on every L2 miss; per-chunk brackets are ~free).
    obs::ScopedPhase timer(chunkPhase_, &stats_.walkCycles);

    const bool virt = walker_->virtualized();
    const bool ref = cfg_.engine == XlatEngine::Reference;
#define CONTIG_XLAT_DISPATCH(SCHEME)                                   \
      case XlatScheme::SCHEME:                                         \
        if (ref) {                                                     \
            virt ? runChunkRef<XlatScheme::SCHEME, true>(a, n)         \
                 : runChunkRef<XlatScheme::SCHEME, false>(a, n);       \
        } else {                                                       \
            virt ? runChunkBatched<XlatScheme::SCHEME, true>(a, n)     \
                 : runChunkBatched<XlatScheme::SCHEME, false>(a, n);   \
        }                                                              \
        break
    switch (cfg_.scheme) {
      CONTIG_XLAT_DISPATCH(Base);
      CONTIG_XLAT_DISPATCH(Spot);
      CONTIG_XLAT_DISPATCH(Rmm);
      CONTIG_XLAT_DISPATCH(Ds);
    }
#undef CONTIG_XLAT_DISPATCH
}

} // namespace contig
