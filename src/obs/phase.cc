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
    std::string key = "phase.";
    key += name;
    key += ".wall_us";
    return Phase(&reg.summary(key));
}

} // namespace obs
} // namespace contig
