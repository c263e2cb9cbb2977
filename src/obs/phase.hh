/**
 * @file
 * Scoped phase timers: measure where simulator time goes, in both
 * wall-clock microseconds (how long the simulator itself spends in a
 * code region) and simulated cycles (how much modelled machine time
 * the region accounts for). Results accumulate into MetricRegistry
 * summaries named "phase.<name>.wall_us" / "phase.<name>.cycles";
 * a region timed without a cycle accumulator leaves its ".cycles"
 * summary empty, and the registry does not emit empty summaries.
 *
 * The fault path, the policy daemons and the replay chunks are
 * instrumented with these; bind a Phase once (registry lookup) and
 * construct a ScopedPhase per region entry.
 */

#ifndef CONTIG_OBS_PHASE_HH
#define CONTIG_OBS_PHASE_HH

#include <chrono>
#include <string_view>

#include "base/stats.hh"
#include "base/types.hh"

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

    Summary &wallUs() { return *wallUs_; }
    Summary &cycles() { return *cycles_; }

  private:
    Phase(Summary *wall_us, Summary *cycles)
        : wallUs_(wall_us), cycles_(cycles)
    {}

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
          t0_(std::chrono::steady_clock::now())
    {}

    ~ScopedPhase()
    {
        const std::chrono::duration<double, std::micro> wall =
            std::chrono::steady_clock::now() - t0_;
        phase_.wallUs().add(wall.count());
        if (simCycles_)
            phase_.cycles().add(static_cast<double>(*simCycles_ - simStart_));
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Phase &phase_;
    const Cycles *simCycles_;
    Cycles simStart_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace obs
} // namespace contig

#endif // CONTIG_OBS_PHASE_HH
