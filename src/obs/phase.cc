#include "obs/phase.hh"

#include <string>

#include "obs/metrics.hh"

namespace contig
{
namespace obs
{

Phase
Phase::bind(MetricRegistry &reg, std::string_view name)
{
    std::string base = "phase.";
    base += name;
    Summary &wall = reg.summary(base + ".wall_us");
    Summary &cyc = reg.summary(base + ".cycles");
    return Phase(&wall, &cyc);
}

} // namespace obs
} // namespace contig
