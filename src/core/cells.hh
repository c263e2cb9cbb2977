/**
 * @file
 * The cell pool. A bench reduces many configurations to a few numbers
 * each (a table cell). A CellPool<T> runs each such leg in a forked
 * child and returns the results in spawn order; runCells() runs n
 * independent cells through one pool.
 *
 * spawn(fn) forks the leg's child at once, from the caller's state at
 * that moment: the leg sees the process as it was when it was spawned
 * and none of the parent's later changes, and the parent sees none of
 * the leg's. So a parent can age one machine in order and spawn a leg
 * that reads it after each step (fig14 and table7 replay each
 * workload off one aging VM). At most `jobs` children are alive at
 * once; a spawn into a full pool first waits for one to finish.
 *
 * Fork gives every leg its own copy of the process-wide registries,
 * so the library stays single-threaded. Each child clears its copies
 * of the owned metrics, the RunInfo record and the attribution
 * tables, runs its leg, and sends back the result with an exact
 * export of all three (counters as decimal integers, doubles as %a
 * hex floats). join() waits for every leg and absorbs the exports in
 * spawn order. The merged metrics equal a serial run's whenever each
 * non-integral double metric gets at most one contribution per leg,
 * and the merged attribution tables always do (DESIGN.md, "Execution
 * model"). A leg that builds two machines under one metric prefix
 * (two native kernels) gives such a metric two contributions; run one
 * machine per leg instead, spawned in the order in which a serial
 * run's machines die (fig11 does).
 *
 * Legs run inline instead — each at its spawn, so in the serial order,
 * with no fork — when `jobs` (by default the CPUs in the affinity
 * mask) is 1, or when the timeline sink is open: it records per-event
 * data that cannot be merged. So `taskset -c 0 <bench>` runs a bench
 * serially.
 *
 * A leg must not print (children leave by _exit, so their stdio
 * buffers are never flushed). It may read objects built before its
 * spawn, but it must not run a machine built before it (a fault
 * times itself through a Phase bound to the owned metrics the child
 * clears). A child that exits non-zero or dies on a signal makes the
 * parent kill the others and fatal() with the leg's index.
 */

#ifndef CONTIG_CORE_CELLS_HH
#define CONTIG_CORE_CELLS_HH

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/types.h>

namespace contig
{

/** CPUs in this process's affinity mask (at least 1). */
unsigned affinityCpus();

namespace detail
{

/** CellPool<T> with results of `size` bytes; see CellPool. */
class ForkPool
{
  public:
    using LegFn = std::function<void(void *)>;

    ForkPool(std::size_t legs, std::size_t size, unsigned jobs);
    /** Kills and reaps any child still running. */
    ~ForkPool();
    ForkPool(const ForkPool &) = delete;
    ForkPool &operator=(const ForkPool &) = delete;

    /** Run the next leg as fn(result). */
    void spawn(const LegFn &fn);

    /**
     * Wait for every leg, absorb their exports in spawn order and copy
     * leg i's result to out + i * size.
     */
    void join(void *out);

    std::size_t legs() const { return legs_; }

  private:
    struct Child
    {
        pid_t pid = 0;
        std::size_t leg = 0;
    };

    /** Reap one child of this pool; fail unless it exited cleanly. */
    void reapOne();
    /** Kill and reap every running child; close every temp file. */
    void killAll();
    [[noreturn]] void fail(const std::string &msg);

    std::size_t legs_;
    std::size_t size_;
    unsigned jobs_;
    bool inline_;
    std::size_t spawned_ = 0;
    std::vector<Child> running_;
    /** Inline legs' results. */
    std::vector<std::string> results_;
    /**
     * Forked legs' unlinked temp files, each holding its result and
     * exported state until join() reads it, so the parent's memory
     * does not grow with the legs it has waited for.
     */
    std::vector<std::FILE *> files_;
};

} // namespace detail

/**
 * A pool of `legs` legs, each returning one T.
 * @param jobs children at once; 0 means affinityCpus(). Tests pass
 *        1 (inline) or a fixed count.
 */
template <typename T>
class CellPool
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "a leg's result crosses a process boundary as bytes");

  public:
    explicit CellPool(std::size_t legs, unsigned jobs = 0)
        : pool_(legs, sizeof(T), jobs)
    {}

    /** Run fn as the next leg (forked now, or inline). */
    void
    spawn(const std::function<T()> &fn)
    {
        pool_.spawn([&fn](void *dst) {
            const T v = fn();
            std::memcpy(dst, &v, sizeof(T));
        });
    }

    /**
     * Wait for every leg, absorb their state in spawn order and return
     * their results in spawn order. Call once, after all legs spawned.
     */
    std::vector<T>
    join()
    {
        std::vector<T> out(pool_.legs());
        pool_.join(out.data());
        return out;
    }

  private:
    detail::ForkPool pool_;
};

/**
 * Run cells 0..n-1 and return their results in cell order. A single
 * cell runs inline.
 * @param jobs as for CellPool.
 */
template <typename T>
std::vector<T>
runCells(std::size_t n, const std::function<T(std::size_t)> &fn,
         unsigned jobs = 0)
{
    CellPool<T> pool(n, n <= 1 ? 1 : jobs);
    for (std::size_t i = 0; i < n; ++i)
        pool.spawn([&fn, i] { return fn(i); });
    return pool.join();
}

} // namespace contig

#endif // CONTIG_CORE_CELLS_HH
