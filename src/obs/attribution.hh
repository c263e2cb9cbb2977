/**
 * @file
 * Per-event cost attribution: where do translation and fault cycles
 * go, resolved by *why* the event was cheap or expensive and by the
 * contiguity class of the mapping it hit?
 *
 * Translation events are classified by scheme outcome (TLB hit,
 * direct-segment hit, SpOT hit, vRMM range hit, PSC-assisted walk,
 * full walk) crossed with the contiguity class of the faulted
 * mapping — the log2 bucket of the offset-run the vpn lands in
 * (class 0 = a lone 4 KiB page, class 9 = a THP-sized run, higher =
 * larger offset-runs). Fault events are classified by (fault kind x
 * allocated order x fallback reason). Each cell keeps exact sums and
 * a Log2Histogram of its cycle distribution; a bounded reservoir of
 * exemplar events names the hottest outliers by vpn, replay chunk and
 * event ordinal.
 *
 * Gating: AttribRegistry::enabled() is a process-wide switch flipped
 * by BenchOutput (--attrib) before any simulator exists. When off, no
 * attribution object is ever allocated and hot paths pay exactly one
 * nullable-pointer branch per event site (ratio-gated by
 * micro_obs_overhead's BM_AttribOff row). When on, each
 * TranslationSim and each FaultEngine owns a private table, and every
 * table folds into the global AttribRegistry when its owner dies,
 * which renders the "attribution" bench-JSON section.
 */

#ifndef CONTIG_OBS_ATTRIBUTION_HH
#define CONTIG_OBS_ATTRIBUTION_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace contig
{

class JsonWriter;
struct Seg;

namespace obs
{

/** Why a translation event cost what it cost. */
enum class XlatOutcome : std::uint8_t
{
    TlbHit,     //!< L1 or L2 TLB hit (no walk)
    SegmentHit, //!< Direct Segments register hit (bypasses the TLB)
    SpotHit,    //!< walk fully hidden by a correct SpOT prediction
    RangeHit,   //!< vRMM range-TLB hit (translation without a walk)
    PscWalk,    //!< walk with upper levels skipped by the PSC
    FullWalk,   //!< the full (1-D or 2-D) walk, nothing skipped
};

inline constexpr unsigned kXlatOutcomes = 6;

/** Stable lower-case token ("full_walk") for JSON / metric names. */
const char *xlatOutcomeName(XlatOutcome o);

/**
 * Contiguity classes: class b holds mappings whose containing
 * offset-run is [2^b, 2^(b+1)) pages. Class 0 is a lone 4 KiB page,
 * class 9 (kHugeOrder) a THP-sized run, class 15 caps at >= 128 MiB
 * of contiguity. Pages outside any extracted run classify as 0.
 */
inline constexpr unsigned kContigClasses = 16;

/** Human label for a class ("4K", "2M(THP)", "2^12p"). */
const char *contigClassName(unsigned cls);

/**
 * Immutable vpn -> contiguity-class index over the extracted
 * offset-run segments (contig/analysis extractSegs / extract2d).
 * Page tables are static during translation replay, so one index is
 * built per run and shared read-only.
 */
class ContigClassIndex
{
  public:
    ContigClassIndex() = default;
    explicit ContigClassIndex(const std::vector<Seg> &segs);

    /** Class of the run containing vpn; 0 when uncovered. */
    unsigned classify(Vpn vpn) const;

    /** Class of a run of `pages` contiguous pages. */
    static unsigned classOfRun(std::uint64_t pages);

    std::size_t runs() const { return runs_.size(); }

  private:
    struct Run
    {
        Vpn vpn = 0;
        std::uint64_t pages = 0;
        std::uint8_t cls = 0;
    };

    std::vector<Run> runs_; //!< sorted by vpn, non-overlapping
};

/**
 * One attribution cell: event count, exact cycle sums and the
 * distribution of the "primary" cycles (exposed cycles for
 * translation, fault cycles for faults).
 */
struct CostCell
{
    std::uint64_t events = 0;
    Cycles cycles = 0;  //!< raw cost (walk cycles / fault cycles)
    Cycles exposed = 0; //!< cost after scheme hiding (xlat only)
    Log2Histogram hist; //!< distribution of the primary cycles

    bool empty() const { return events == 0; }
    void mergeFrom(const CostCell &other);
};

/**
 * Translation-side attribution table. Owned by TranslationSim when
 * the registry switch is on.
 */
class XlatAttribution
{
  public:
    /** Exemplar reservoir size (top-K by exposed cycles). */
    static constexpr std::size_t kExemplarCapacity = 16;

    /** One sampled hot event, located by its chunk and ordinal. */
    struct Exemplar
    {
        Vpn vpn = 0;
        Cycles cycles = 0; //!< exposed cycles
        std::uint8_t outcome = 0;
        std::uint8_t cls = 0;
        std::uint64_t chunk = 0; //!< replay chunk the event fell in
        std::uint64_t seq = 0;   //!< per-table event ordinal
    };

    explicit XlatAttribution(std::string label) : label_(std::move(label)) {}

    const std::string &label() const { return label_; }

    void
    setIndex(std::shared_ptr<const ContigClassIndex> index)
    {
        index_ = std::move(index);
    }

    /** Current replay chunk id, stamped into exemplars. */
    void setChunk(std::uint64_t chunk) { chunk_ = chunk; }

    /** Classify and account one translation event. */
    void
    record(XlatOutcome o, Vpn vpn, Cycles walk_cycles, Cycles exposed)
    {
        const unsigned cls = index_ ? index_->classify(vpn) : 0;
        CostCell &cell = cells_[static_cast<unsigned>(o)][cls];
        ++cell.events;
        cell.cycles += walk_cycles;
        cell.exposed += exposed;
        cell.hist.add(exposed);
        const std::uint64_t seq = seq_++;
        if (exposed > 0)
            offer(Exemplar{vpn, exposed, static_cast<std::uint8_t>(o),
                           static_cast<std::uint8_t>(cls), chunk_, seq});
    }

    const CostCell &
    cell(unsigned outcome, unsigned cls) const
    {
        return cells_[outcome][cls];
    }
    CostCell &
    cell(unsigned outcome, unsigned cls)
    {
        return cells_[outcome][cls];
    }

    /** All classes of one outcome folded together. */
    CostCell outcomeTotal(unsigned outcome) const;

    /** Sorted (cycles desc, chunk asc, seq asc) exemplars, <= K. */
    const std::vector<Exemplar> &exemplars() const { return exemplars_; }

    std::uint64_t events() const { return seq_; }
    std::uint64_t chunk() const { return chunk_; }

    /**
     * Rebuild a table another process exported (core/cells), after
     * its cells and setChunk(): offer its exemplars and take its
     * event count.
     */
    void restore(const std::vector<Exemplar> &exemplars,
                 std::uint64_t events);

    /** Fold another table in (AttribRegistry::absorbXlat). */
    void mergeFrom(const XlatAttribution &other);

  private:
    void offer(const Exemplar &e);

    std::string label_;
    std::shared_ptr<const ContigClassIndex> index_;
    CostCell cells_[kXlatOutcomes][kContigClasses];
    std::vector<Exemplar> exemplars_;
    std::uint64_t chunk_ = 0;
    std::uint64_t seq_ = 0;
};

/** Fault-side key dimensions. */
inline constexpr unsigned kFaultKinds = 3;  //!< anon / cow / file
inline constexpr unsigned kFaultOrders = 2; //!< base (0) / huge
inline constexpr unsigned kFaultFalls = 3;  //!< none / no_huge_block / oom

const char *faultKindName(unsigned kind);
const char *faultFallName(unsigned fall);

/**
 * Fault-path attribution: (fault kind x allocated order x fallback
 * reason) -> cycles. Owned by FaultEngine and folded into the
 * AttribRegistry when the engine dies.
 */
class FaultAttribution
{
  public:
    void
    record(unsigned kind, bool huge, unsigned fallback, Cycles cycles)
    {
        CostCell &cell = cells_[kind][huge ? 1 : 0][fallback];
        ++cell.events;
        cell.cycles += cycles;
        cell.hist.add(cycles);
    }

    const CostCell &
    cell(unsigned kind, unsigned order_idx, unsigned fall) const
    {
        return cells_[kind][order_idx][fall];
    }
    CostCell &
    cell(unsigned kind, unsigned order_idx, unsigned fall)
    {
        return cells_[kind][order_idx][fall];
    }

    std::uint64_t events() const;

    void mergeFrom(const FaultAttribution &other);

  private:
    CostCell cells_[kFaultKinds][kFaultOrders][kFaultFalls];
};

/**
 * The process-wide switch and accumulator. Dying simulators and
 * fault engines absorb their tables here (cold path);
 * BenchOutput renders the result as the "attribution" JSON section.
 */
class AttribRegistry
{
  public:
    static bool
    enabled()
    {
        return enabled_;
    }

    /** Flip before any simulator/kernel exists (BenchOutput ctor). */
    static void
    setEnabled(bool on)
    {
        enabled_ = on;
    }

    static AttribRegistry &global();

    /** Fold a dying simulator's table in, keyed by its scheme label. */
    void absorbXlat(const XlatAttribution &table);
    void absorbFault(const FaultAttribution &table);

    bool hasData() const;

    /** Labels with absorbed translation tables, sorted. */
    std::vector<std::string> labels() const;

    /** The merged table for one label (nullptr when absent). */
    const XlatAttribution *xlat(const std::string &label) const;
    const FaultAttribution &fault() const { return fault_; }

    /**
     * Emit `"attribution": {...}` into an open JSON object; emits
     * nothing when no table was ever absorbed.
     */
    void writeSection(JsonWriter &w) const;

    /** Drop all absorbed data (tests). */
    void reset();

  private:
    inline static bool enabled_ = false;

    std::map<std::string, XlatAttribution> xlat_;
    FaultAttribution fault_;
    bool hasFault_ = false;
};

} // namespace obs
} // namespace contig

#endif // CONTIG_OBS_ATTRIBUTION_HH
