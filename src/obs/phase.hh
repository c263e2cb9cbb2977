/**
 * @file
 * Scoped phase timers: measure where simulator time goes, in both
 * wall-clock microseconds (how long the simulator itself spends in a
 * code region) and simulated cycles (how much modelled machine time
 * the region accounts for). Results accumulate into MetricRegistry
 * summaries named "phase.<name>.wall_us" / "phase.<name>.cycles",
 * and each timed region emits a Chrome-trace 'X' span when the phase
 * trace category is enabled.
 *
 * The fault path, the policy daemons and the walk path are
 * instrumented with these; bind a Phase once (registry lookup) and
 * construct a ScopedPhase per region entry.
 */

#ifndef CONTIG_OBS_PHASE_HH
#define CONTIG_OBS_PHASE_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "base/stats.hh"
#include "base/types.hh"
#include "obs/trace.hh"

namespace contig
{
namespace obs
{

class MetricRegistry;

/** Accumulated timing of one named phase. */
class Phase
{
  public:
    /** Bind (creating on first use) phase `name` in `reg`. */
    static Phase bind(MetricRegistry &reg, std::string_view name);

    const char *name() const { return name_; }
    Summary &wallUs() { return *wallUs_; }
    Summary &cycles() { return *cycles_; }

  private:
    Phase(const char *name, Summary *wall_us, Summary *cycles)
        : name_(name), wallUs_(wall_us), cycles_(cycles)
    {}

    /** Interned in the global TraceSink (stable lifetime). */
    const char *name_;
    /** Registry-owned summaries (stable addresses). */
    Summary *wallUs_;
    Summary *cycles_;
};

/**
 * RAII region timer. Pass a pointer to the simulated-cycle
 * accumulator the region advances (e.g. &faultStats.totalCycles) to
 * also record the modelled cycles the region added.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase &phase, const Cycles *sim_cycles = nullptr)
        : phase_(phase), simCycles_(sim_cycles),
          simStart_(sim_cycles ? *sim_cycles : 0),
          t0_(TraceSink::global().nowNs())
    {}

    ~ScopedPhase()
    {
        const std::uint64_t t1 = TraceSink::global().nowNs();
        const std::uint64_t dur_ns = t1 - t0_;
        const Cycles sim = simCycles_ ? *simCycles_ - simStart_ : 0;
        phase_.wallUs().add(static_cast<double>(dur_ns) / 1000.0);
        if (simCycles_)
            phase_.cycles().add(static_cast<double>(sim));
        TraceSink &sink = TraceSink::global();
        if (sink.wants(kCatPhase))
            sink.recordSpan(phase_.name(), t0_, dur_ns, sim);
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Phase &phase_;
    const Cycles *simCycles_;
    Cycles simStart_;
    std::uint64_t t0_;
};

} // namespace obs
} // namespace contig

#endif // CONTIG_OBS_PHASE_HH
