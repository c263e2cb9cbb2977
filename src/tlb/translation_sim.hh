/**
 * @file
 * The address-translation simulator: replays a (pc, gVA) access
 * stream through the TLB hierarchy and, on L2 misses, through the
 * configured translation scheme — plain walks, SpOT speculation,
 * a vRMM range TLB, or Direct Segments. Produces the event counts
 * (walks, correct/mis/no predictions, range hits) that the Table IV
 * performance model converts into the overheads of Fig. 13.
 */

#ifndef CONTIG_TLB_TRANSLATION_SIM_HH
#define CONTIG_TLB_TRANSLATION_SIM_HH

#include <memory>

#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "ranges/ranges.hh"
#include "spot/spot.hh"
#include "tlb/tlb.hh"
#include "tlb/walker.hh"

namespace contig
{

namespace obs
{
class ContigClassIndex;
class XlatAttribution;
} // namespace obs

/** One memory instruction execution. */
struct MemAccess
{
    Addr pc = 0;
    Gva va{0};
};

/** Which accelerator sits on the L2-miss path. */
enum class XlatScheme : std::uint8_t
{
    Base,  //!< plain page walks
    Spot,  //!< SpOT speculation
    Rmm,   //!< vRMM range TLB
    Ds,    //!< Direct Segments dual mode
};

/**
 * Which replay inner loop runs. Both produce bit-identical
 * statistics and scheme state (pinned by the engine
 * golden-equivalence test); only wall-clock time differs, which is
 * what the micro_xlat_scaling ratio gate measures.
 */
enum class XlatEngine : std::uint8_t
{
    /**
     * The historical loop: out-of-line per-way scalar probes and
     * per-access statistics writes. Retained as the golden reference
     * and the denominator of the SoA/SIMD speedup.
     */
    Reference,
    /**
     * The SoA loop: vpn lane precomputed per chunk, inline
     * SIMD-capable set probes, hit counters sunk into chunk-local
     * accumulators that flush once per chunk.
     */
    Batched,
};

/** Aggregated simulation results. */
struct XlatStats
{
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t walks = 0;          //!< L2 misses that walked
    std::uint64_t walkRefs = 0;
    Cycles walkCycles = 0;            //!< raw walk cost (before hiding)
    Cycles exposedCycles = 0;         //!< translation cost after scheme
    /** SpOT outcome counts (Fig. 14). */
    std::uint64_t spotCorrect = 0;
    std::uint64_t spotMispredicted = 0;
    std::uint64_t spotNoPrediction = 0;
    /** vRMM / DS event counts. */
    std::uint64_t rangeHits = 0;
    std::uint64_t segmentHits = 0;

    double
    avgWalkCycles() const
    {
        return walks ? static_cast<double>(walkCycles) / walks : 0.0;
    }
};

/** Everything the simulator needs for one configuration. */
struct XlatConfig
{
    TlbHierConfig tlb;
    WalkerConfig walker;
    XlatScheme scheme = XlatScheme::Base;
    XlatEngine engine = XlatEngine::Batched;
    SpotConfig spot;
    RangeTlbConfig rangeTlb;
};

/**
 * One translation pipeline instance. Construct with a native page
 * table or a (guest PT, VM) pair, plus optional scheme state.
 */
class TranslationSim
{
  public:
    /** Native. */
    TranslationSim(const XlatConfig &cfg, const PageTable &pt);

    /** Virtualized. */
    TranslationSim(const XlatConfig &cfg, const PageTable &guest_pt,
                   const VirtualMachine &vm);

    /** Folds the attribution table into AttribRegistry::global(). */
    ~TranslationSim();

    /**
     * Provide the extracted 2-D segments (required for Rmm, and for
     * Ds if no explicit segment is set — the largest segment becomes
     * the direct segment).
     */
    void setSegments(std::vector<Seg> segs);

    /**
     * Simulate a contiguous chunk of accesses — the only way accesses
     * enter the pipeline. Chunk boundaries never change results:
     * statistics and scheme state evolve exactly as if the accesses
     * came one per call. The scheme/virtualization dispatch is
     * resolved once per chunk, and the "xlat.chunk" phase timer
     * brackets the chunk.
     */
    void accessChunk(const MemAccess *a, std::size_t n);

    const XlatStats &stats() const { return stats_; }

    /**
     * True when the probe structures run the AVX2 kernels: Batched
     * engine on an AVX2-capable CPU, not forced scalar.
     */
    bool simdActive() const;

    const Walker &walker() const { return *walker_; }
    const SpotEngine *spot() const { return spot_.get(); }
    const RangeTlb *rangeTlb() const { return rangeTlb_.get(); }

    /**
     * Cost attribution (null unless AttribRegistry::enabled() when
     * the simulator was built). The index classifies each event's vpn
     * into a contiguity class; noteChunk stamps the replay chunk id
     * into exemplars so hot outliers link back to --trace streams.
     */
    const obs::XlatAttribution *attrib() const { return attrib_.get(); }
    void setContigIndex(std::shared_ptr<const obs::ContigClassIndex> idx);
    void noteChunk(std::uint64_t chunk);

    /**
     * Report pipeline metrics: access/hit/walk counters, the L2-miss
     * latency summary, and the TLB/walker/SpOT component groups.
     * Registered with MetricRegistry::global() under "xlat" for the
     * simulator's lifetime.
     */
    void collectMetrics(obs::MetricSink &sink) const;

  private:
    void init();

    /**
     * The monomorphized inner loops (scheme + virtualization fixed):
     * the retained per-access reference and the batched SoA loop.
     */
    template <XlatScheme S, bool Virt>
    void runChunkRef(const MemAccess *a, std::size_t n);
    template <XlatScheme S, bool Virt>
    void runChunkBatched(const MemAccess *a, std::size_t n);

    /** Slow path shared by the batched loop: one L2 miss. */
    template <XlatScheme S, bool Virt>
    void missPath(const MemAccess &a, Vpn vpn);

    XlatConfig cfg_;
    TlbHierarchy tlb_;
    std::unique_ptr<Walker> walker_;
    std::unique_ptr<SpotEngine> spot_;
    std::unique_ptr<RangeTable> rangeTable_;
    std::unique_ptr<RangeTlb> rangeTlb_;
    /**
     * DS dual direct mode: the virtual spans covered directly
     * (merged from the mapped segments — the primary region the
     * segment register pair covers when the VM boots).
     */
    std::vector<DirectSegment> segments_;
    XlatStats stats_;
    /** Batched engine: chunk-sized vpn lane, reused across chunks. */
    std::vector<Vpn> vpnLane_;
    /** Exposed translation cycles per L2 miss (walk + scheme effects). */
    Summary l2MissLatency_;
    obs::Phase chunkPhase_;
    /**
     * Per-event cost attribution; null when the switch is off.
     * Declared before metricSource_: the source's destructor absorbs
     * a final collectMetrics() snapshot, which reads this table.
     */
    std::unique_ptr<obs::XlatAttribution> attrib_;
    obs::MetricSource metricSource_;
};

} // namespace contig

#endif // CONTIG_TLB_TRANSLATION_SIM_HH
