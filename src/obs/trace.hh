/**
 * @file
 * Structured event tracing: a fixed-capacity ring buffer of typed
 * events (page faults, allocations, promotions, migrations, TLB
 * misses, SpOT outcomes, nested walks, daemon ticks, phase spans)
 * with Chrome trace_event JSON and JSONL exporters.
 *
 * Cost model:
 *  - compile-time: building with -DCONTIG_TRACING=0 compiles every
 *    CONTIG_TRACE() to nothing;
 *  - runtime: with tracing compiled in (the default), a disabled
 *    category costs exactly one predictable branch on a cached mask
 *    load (verified by bench/micro_obs_overhead.cc). Only enabled
 *    events pay for a clock read and a ring-buffer store.
 *
 * Open exported traces in chrome://tracing or https://ui.perfetto.dev.
 */

#ifndef CONTIG_OBS_TRACE_HH
#define CONTIG_OBS_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#ifndef CONTIG_TRACING
#define CONTIG_TRACING 1
#endif

namespace contig
{
namespace obs
{

/** Category bits for the runtime mask. */
enum TraceCategory : std::uint32_t
{
    kCatFault = 1u << 0,   //!< page faults (anon/COW/file, fallbacks)
    kCatAlloc = 1u << 1,   //!< frame claims / placements
    kCatPromote = 1u << 2, //!< huge-page promotions
    kCatMigrate = 1u << 3, //!< page migrations / compaction moves
    kCatTlb = 1u << 4,     //!< L2 TLB misses
    kCatSpot = 1u << 5,    //!< SpOT predict/verify outcomes
    kCatWalk = 1u << 6,    //!< nested (2-D) page walks
    kCatDaemon = 1u << 7,  //!< policy daemon ticks
    kCatPhase = 1u << 8,   //!< scoped phase-timer spans
    kCatReplay = 1u << 9,  //!< translation-replay chunk boundaries
    kCatAll = 0xffffffffu,
};

/**
 * Parse "fault,spot,walk" / "all" / "0x1f" into a category mask.
 * Returns 0 for any unknown name or a hex mask with trailing junk.
 */
std::uint32_t parseTraceCategories(std::string_view spec);

/** The typed events. Each kind maps to one descriptor below. */
enum class TraceEventKind : std::uint8_t
{
    PageFault,    //!< args: vpn, pfn, order
    CowFault,     //!< args: vpn, pfn, order
    FileFault,    //!< args: vpn, pfn, file_id
    HugeFallback, //!< args: vpn
    Alloc,        //!< args: pfn, order, owner_id
    Promotion,    //!< args: vpn, pages
    Migration,    //!< args: from_pfn, to_pfn, pages
    TlbL2Miss,    //!< args: vpn
    SpotCorrect,  //!< args: pc, offset
    SpotMispredict, //!< args: pc, offset
    SpotNoPredict,  //!< args: pc
    NestedWalk,   //!< args: vpn, refs, cycles
    DaemonTick,   //!< args: now (faults)
    PhaseSpan,    //!< complete event; args: cycles
    ReplayChunk,  //!< args: chunk, accesses, walks
    NumKinds,
};

/** Static description of one event kind. */
struct TraceEventDesc
{
    const char *name;
    std::uint32_t category;
    /** Chrome-trace arg names; nullptr-terminated by convention. */
    const char *args[3];
};

/** Descriptor table indexed by TraceEventKind. */
constexpr TraceEventDesc kTraceEventDescs[] = {
    {"page_fault", kCatFault, {"vpn", "pfn", "order"}},
    {"cow_fault", kCatFault, {"vpn", "pfn", "order"}},
    {"file_fault", kCatFault, {"vpn", "pfn", "file"}},
    {"huge_fallback", kCatFault, {"vpn", nullptr, nullptr}},
    {"alloc", kCatAlloc, {"pfn", "order", "owner"}},
    {"promotion", kCatPromote, {"vpn", "pages", nullptr}},
    {"migration", kCatMigrate, {"from_pfn", "to_pfn", "pages"}},
    {"tlb_l2_miss", kCatTlb, {"vpn", nullptr, nullptr}},
    {"spot_correct", kCatSpot, {"pc", "offset", nullptr}},
    {"spot_mispredict", kCatSpot, {"pc", "offset", nullptr}},
    {"spot_no_predict", kCatSpot, {"pc", nullptr, nullptr}},
    {"nested_walk", kCatWalk, {"vpn", "refs", "cycles"}},
    {"daemon_tick", kCatDaemon, {"now", nullptr, nullptr}},
    {"phase", kCatPhase, {"cycles", nullptr, nullptr}},
    {"replay_chunk", kCatReplay, {"chunk", "accesses", "walks"}},
};

static_assert(sizeof(kTraceEventDescs) / sizeof(kTraceEventDescs[0]) ==
                  static_cast<std::size_t>(TraceEventKind::NumKinds),
              "descriptor table out of sync with TraceEventKind");

constexpr std::uint32_t
traceCategoryOf(TraceEventKind kind)
{
    return kTraceEventDescs[static_cast<std::size_t>(kind)].category;
}

/** Kinds exported as Chrome complete ('X') events with a duration. */
constexpr bool
traceIsSpanKind(TraceEventKind kind)
{
    return kind == TraceEventKind::PhaseSpan;
}

/** One recorded event (24 B of payload + timing). */
struct TraceEvent
{
    std::uint64_t tsNs = 0;  //!< wall-clock ns since sink epoch
    std::uint64_t durNs = 0; //!< span duration (span kinds only)
    std::uint64_t args[3] = {0, 0, 0};
    /** Interned span name (span kinds only), else nullptr. */
    const char *spanName = nullptr;
    TraceEventKind kind = TraceEventKind::PageFault;
};

/**
 * The ring buffer. One process-wide instance (global()); records are
 * dropped-oldest once capacity is reached, with a drop counter so
 * exports can say what's missing.
 */
class TraceSink
{
  public:
    static TraceSink &global();

    TraceSink() = default;
    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** The hot-path gate: one load + one branch. */
    bool wants(std::uint32_t category) const
    { return (mask_ & category) != 0; }

    std::uint32_t categoryMask() const { return mask_; }
    void setCategoryMask(std::uint32_t mask) { mask_ = mask; }

    /** Resize the ring (drops recorded events). Default 1M events. */
    void setCapacity(std::size_t events);
    std::size_t capacity() const { return capacity_; }

    void record(TraceEventKind kind, std::uint64_t a0 = 0,
                std::uint64_t a1 = 0, std::uint64_t a2 = 0);

    /** Record a completed phase span (Chrome 'X' event). */
    void recordSpan(const char *interned_name, std::uint64_t ts_ns,
                    std::uint64_t dur_ns, std::uint64_t a0);

    /**
     * Intern a span name: returns a pointer stable for the sink's
     * lifetime. Call once per call site, not per event.
     */
    const char *intern(std::string_view name);

    /** Monotonic ns since the sink's epoch (first use). */
    std::uint64_t nowNs() const;

    std::size_t size() const;
    std::uint64_t recorded() const { return recorded_; }
    std::uint64_t dropped() const { return dropped_; }
    void clear();

    /** Events oldest-first (copies; the ring keeps recording). */
    std::vector<TraceEvent> events() const;

    /**
     * Write the buffer as Chrome trace_event JSON ({"traceEvents":
     * [...]}) loadable by chrome://tracing and Perfetto. Returns
     * false if the file could not be opened.
     */
    bool writeChromeTrace(const std::string &path) const;

    /** Write the buffer as JSON Lines (one event object per line). */
    bool writeJsonl(const std::string &path) const;

  private:
    TraceEvent &nextSlot();

    std::uint32_t mask_ = 0;
    std::size_t capacity_ = 1u << 20;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0; //!< next write position once ring is full
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    /** Interned span names (stable addresses). */
    std::vector<std::unique_ptr<std::string>> interned_;
    mutable std::int64_t epochNs_ = -1;
};

/**
 * The process-wide sink, constant-initialized (constinit in trace.cc)
 * so TraceSink::global() is a plain address — no function-local-
 * static guard branch on the hot path.
 */
extern TraceSink gTraceSink;

inline TraceSink &
TraceSink::global()
{
    return gTraceSink;
}

} // namespace obs
} // namespace contig

/**
 * The instrumentation macro. Usage:
 *   CONTIG_TRACE(obs::TraceEventKind::PageFault, vpn, pfn, order);
 * Compiles away entirely under -DCONTIG_TRACING=0; otherwise costs a
 * single branch per call site while the category is masked off.
 */
#if CONTIG_TRACING
#define CONTIG_TRACE(kind, ...)                                           \
    do {                                                                  \
        ::contig::obs::TraceSink &sink_ =                                 \
            ::contig::obs::TraceSink::global();                           \
        if (sink_.wants(::contig::obs::traceCategoryOf(kind)))            \
            sink_.record((kind)__VA_OPT__(, ) __VA_ARGS__);               \
    } while (0)
#else
#define CONTIG_TRACE(kind, ...) ((void)0)
#endif

#endif // CONTIG_OBS_TRACE_HH
