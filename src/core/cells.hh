/**
 * @file
 * The cell runner. Many benches loop over independent cells: each
 * builds its own machine, runs one configuration and reduces it to a
 * few numbers (a table cell). runCells() runs cell i as fn(i) in a
 * forked child, with at most one child per CPU in the process's
 * affinity mask, and returns the results in cell order.
 *
 * Fork gives every cell its own copy of the process-wide registries,
 * so the library stays single-threaded. Each child clears its copies
 * of the owned metrics, the RunInfo record and the attribution
 * tables, runs its cell, and sends back the result with an exact
 * export of all three (counters as decimal integers, doubles as %a
 * hex floats); the parent absorbs the exports in cell order. The
 * merged metrics equal a serial run's whenever each non-integral
 * double metric gets at most one contribution per cell, and the
 * merged attribution tables always do (DESIGN.md, "Execution model").
 *
 * Cells run inline instead — the same code in the same order, no
 * fork — when there is at most one cell, when `jobs` is 1, or while
 * the timeline sink is on: it records per-event data that cannot be
 * merged. So `taskset -c 0 <bench>` runs a bench serially.
 *
 * A cell must not print (children leave by _exit, so their stdio
 * buffers are never flushed) and must build every simulator object
 * it uses. A child that exits non-zero or dies on a signal makes the
 * parent kill the others and fatal() with the cell index.
 */

#ifndef CONTIG_CORE_CELLS_HH
#define CONTIG_CORE_CELLS_HH

#include <cstddef>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

namespace contig
{

/** CPUs in this process's affinity mask (at least 1). */
unsigned affinityCpus();

namespace detail
{

/** Run cell i as fn(i, out + i * size); see runCells(). */
void runCellsRaw(std::size_t n, std::size_t size,
                 const std::function<void(std::size_t, void *)> &fn,
                 unsigned jobs, void *out);

} // namespace detail

/**
 * Run cells 0..n-1 and return their results in cell order.
 * @param jobs children at once; 0 means affinityCpus(). Tests pass
 *        1 (inline) or a fixed count.
 */
template <typename T>
std::vector<T>
runCells(std::size_t n, const std::function<T(std::size_t)> &fn,
         unsigned jobs = 0)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "a cell result crosses a process boundary as bytes");
    std::vector<T> out(n);
    detail::runCellsRaw(
        n, sizeof(T),
        [&fn](std::size_t i, void *dst) {
            const T v = fn(i);
            std::memcpy(dst, &v, sizeof(T));
        },
        jobs, out.data());
    return out;
}

} // namespace contig

#endif // CONTIG_CORE_CELLS_HH
