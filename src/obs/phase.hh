/**
 * @file
 * Scoped phase timers: measure where simulator time goes, in
 * wall-clock microseconds (how long the simulator itself spends in a
 * code region). Results accumulate into one MetricRegistry summary
 * per region, "phase.<name>.wall_us". Simulated cycles are counters
 * of their own ("kernel.fault_cycles", "xlat.walk_cycles").
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

namespace contig
{
namespace obs
{

class MetricRegistry;

/** Accumulated wall time of one named phase. */
class Phase
{
  public:
    /** Bind (creating on first use) phase `name` in `reg`. */
    static Phase bind(MetricRegistry &reg, std::string_view name);

    Summary &wallUs() { return *wallUs_; }

  private:
    explicit Phase(Summary *wall_us) : wallUs_(wall_us) {}

    /** Registry-owned summary (stable address). */
    Summary *wallUs_;
};

/** RAII region timer. */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase &phase)
        : phase_(phase), t0_(std::chrono::steady_clock::now())
    {}

    ~ScopedPhase()
    {
        const std::chrono::duration<double, std::micro> wall =
            std::chrono::steady_clock::now() - t0_;
        phase_.wallUs().add(wall.count());
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Phase &phase_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace obs
} // namespace contig

#endif // CONTIG_OBS_PHASE_HH
