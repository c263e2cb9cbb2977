/**
 * @file
 * Reproduces Table I: the number of vRMM ranges and vHC anchor
 * entries needed to map 99 % of each workload's footprint in
 * virtualized execution, under (i) default THP and (ii) CA paging in
 * both guest and host. Workloads run consecutively in one VM, as in
 * the paper.
 * Expected shape: CA cuts ranges from thousands to tens; vHC needs
 * far more entries than vRMM under CA (alignment restrictions —
 * the paper reports ~38x).
 */

#include <array>
#include <cstdio>

#include "base/logging.hh"
#include "core/experiment.hh"
#include "core/bench_io.hh"
#include "core/cells.hh"
#include "core/report.hh"
#include "ranges/ranges.hh"

using namespace contig;

namespace
{

/** paperWorkloads().size(): a cell returns one row each. */
constexpr std::size_t kWorkloads = 5;

struct Row
{
    std::uint64_t ranges = 0;
    std::uint64_t anchors = 0;
};

using Rows = std::array<Row, kWorkloads>;

/** Each workload's entries, the workloads run in turn in one VM. */
Rows
measure(PolicyKind kind)
{
    VirtSystem sys(kind, kind, 7);
    Rows rows;
    for (std::size_t i = 0; i < kWorkloads; ++i) {
        const std::string &name = paperWorkloads()[i];
        auto wl = makeWorkload(name, {1.0, 7});
        Process &proc = sys.guest().createProcess(name);
        wl->setup(proc);
        auto segs = extract2d(proc, sys.vm());
        rows[i] = Row{rangesFor99(segs), vhcEntriesFor99(segs)};
        wl->teardown();
        sys.guest().exitProcess(proc);
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("table1_ranges_anchors", argc, argv);

    contig_assert(paperWorkloads().size() == kWorkloads,
                  "table1 sizes its cells for %zu workloads", kWorkloads);
    const std::vector<Rows> cells = runCells<Rows>(2, [](std::size_t i) {
        return measure(i == 0 ? PolicyKind::Thp : PolicyKind::Ca);
    });
    const Rows &thp = cells[0];
    const Rows &ca = cells[1];

    Report rep("Table I — entries to map 99% of footprint, "
               "virtualized (2-D mappings)");
    rep.header({"workload", "footprint", "THP ranges", "THP vHC",
                "CA ranges", "CA vHC"});
    std::vector<double> gr_thp, gh_thp, gr_ca, gh_ca;
    for (std::size_t i = 0; i < paperWorkloads().size(); ++i) {
        auto wl = makeWorkload(paperWorkloads()[i], {1.0, 7});
        rep.row({paperWorkloads()[i],
                 Report::bytes(wl->footprintBytes()),
                 std::to_string(thp[i].ranges),
                 std::to_string(thp[i].anchors),
                 std::to_string(ca[i].ranges),
                 std::to_string(ca[i].anchors)});
        gr_thp.push_back(std::max<double>(thp[i].ranges, 1));
        gh_thp.push_back(std::max<double>(thp[i].anchors, 1));
        gr_ca.push_back(std::max<double>(ca[i].ranges, 1));
        gh_ca.push_back(std::max<double>(ca[i].anchors, 1));
    }
    rep.row({"geomean", "-", Report::num(geomean(gr_thp), 0),
             Report::num(geomean(gh_thp), 0),
             Report::num(geomean(gr_ca), 0),
             Report::num(geomean(gh_ca), 0)});
    out.add(rep);
    rep.print();

    std::printf("\npaper: THP needs thousands of ranges; CA tens "
                "(svm 10, pagerank 11, hashjoin 7, xsbench 11, "
                "bt 931); CA vHC anchors ~38x CA ranges\n");
    out.write();
    return 0;
}
