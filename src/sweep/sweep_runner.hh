/**
 * @file
 * Parallel grid execution for the figure sweeps.
 *
 * SweepRunner executes every cell of a SweepGrid on a pool of
 * workers, each draining a per-worker work-stealing deque
 * (work_deque.hh): a worker owns a contiguous block of the grid and
 * pops it LIFO; a worker that runs dry steals FIFO from its victims
 * in the deterministic order (w+1, w+2, ...) mod workers. Because the
 * system axis is outer in the grid's row-major order, contiguous
 * blocks keep same-platform cells on one worker — which is what makes
 * the per-worker engine reuse (worker_context.hh) hit.
 *
 * Determinism contract (re-pinned by tests/sweep_test.cpp and the CI
 * byte-compares):
 *  - the result vector is indexed by grid order, so rows come back in
 *    the same order regardless of which worker finished first or who
 *    stole what;
 *  - each cell derives all randomness from SweepPoint::seed() and the
 *    worker context hands out engines bitwise identical to freshly
 *    constructed ones, so a cell's row is a pure function of its
 *    coordinates and `--jobs N` output is byte-identical to
 *    `--jobs 1`.
 *
 * Systems (topology + mapping) are built once per (system, TP) axis
 * pair — eagerly via stealable prebuild items seeded across the
 * deques (so a grid whose first cells share one platform does not
 * serialize its warm-up), with a per-slot once-guard backstop for
 * cells that outrun their prebuild — finalized (no lazy caches), and
 * handed to cells as shared_ptr<const System>.
 *
 * Job-count convention, used by every bench driver through
 * bench/jobs.hh (benchjobs::makeRunner):
 *   --jobs N argument (last occurrence wins) > MOENTWINE_JOBS env >
 *   CPUs in the calling thread's affinity mask.
 */

#ifndef MOENTWINE_SWEEP_SWEEP_RUNNER_HH
#define MOENTWINE_SWEEP_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sweep/sweep_grid.hh"
#include "sweep/worker_context.hh"

namespace moentwine {

/** One unit of work handed to a sweep cell function. */
struct SweepCell
{
    /** Grid coordinates and axis values of this cell. */
    SweepPoint point;
    /**
     * Prebuilt system for the cell's (system, TP) coordinates, shared
     * by every cell with those coordinates; null when the grid does
     * not sweep systems (cells that need no platform, or drivers
     * managing their own shared systems).
     */
    std::shared_ptr<const System> system;
    /**
     * The executing worker's persistent context (never null): engine
     * pool for same-platform reuse and worker id. Cells that build
     * their own state may ignore it.
     */
    WorkerContext *worker = nullptr;
};

/** Execution knobs of a sweep run (none may change a row). */
struct SweepOptions
{
    /** Worker count; 0 resolves as SweepRunner::resolveJobs(). */
    int jobs = 0;
};

/**
 * What a sweep run did, scheduler-side: steal/reuse/prebuild counters
 * and per-worker busy time. Wall-clock and scheduling dependent —
 * report it in diagnostics and benchmarks, never in golden row
 * outputs (steal counts legitimately differ run to run; rows may
 * not).
 */
struct SweepRunStats
{
    /** Workers the run actually used (min(jobs, cells)). */
    int workers = 0;
    /** Cell items executed (== grid cells on success). */
    std::int64_t cells = 0;
    /** Prebuild items executed. */
    std::int64_t prebuilds = 0;
    /** Items executed by a worker that stole them. */
    std::int64_t steals = 0;
    /** Engine pool misses (constructions) across workers. */
    std::int64_t engineBuilds = 0;
    /** Engine pool hits (reset-and-reuse) across workers. */
    std::int64_t engineReuses = 0;
    /** Per-worker executed item counts (indexed by worker id). */
    std::vector<std::int64_t> workerItems;
    /** Per-worker busy seconds (sum of item execution times). */
    std::vector<double> workerBusySeconds;
};

/**
 * Work-stealing worker pool over sweep grids.
 */
class SweepRunner
{
  public:
    /** Computes one result row from one cell; must be thread-safe. */
    using CellFn = std::function<SweepResult(const SweepCell &)>;

    /**
     * @param jobs Worker count; 0 resolves MOENTWINE_JOBS, then the
     *             affinity-mask CPU count (see resolveJobs()).
     */
    explicit SweepRunner(int jobs = 0);

    /** Options constructor (opts.jobs resolved as above). */
    explicit SweepRunner(const SweepOptions &opts);

    /** The resolved worker count. */
    int jobs() const { return jobs_; }

    /**
     * Execute every cell of @p grid through @p fn and return the rows
     * in grid order. With jobs() == 1 the cells run inline on the
     * calling thread in grid order — the serial reference the
     * parallel output is byte-identical to. A cell that throws aborts
     * the sweep: workers stop claiming items and the first exception
     * (in completion order) is rethrown on the caller after the pool
     * drains. When @p stats is non-null it is overwritten with the
     * run's scheduler counters.
     */
    std::vector<SweepResult> run(const SweepGrid &grid, const CellFn &fn,
                                 SweepRunStats *stats = nullptr) const;

    /**
     * Resolve a requested job count: @p requested when positive, else
     * the MOENTWINE_JOBS environment variable when set (anything but a
     * strict positive integer is fatal() — a half-parsed "4abc" must
     * not silently size the pool), else the number of CPUs in the
     * calling thread's affinity mask (sched_getaffinity on Linux, so
     * a `taskset` or cpuset-restricted run does not oversubscribe;
     * std::thread::hardware_concurrency() elsewhere), min 1.
     */
    static int resolveJobs(int requested);

    /**
     * Parse `--jobs N` / `--jobs=N` out of argv. Every occurrence is
     * validated (a malformed value is fatal() wherever it appears);
     * the LAST occurrence wins, the normal CLI override convention —
     * `bench --jobs 8 --jobs 1` runs serial. Returns 0 when absent,
     * so the result feeds straight into the constructor.
     */
    static int jobsFromArgs(int argc, char **argv);

  private:
    int jobs_;
};

} // namespace moentwine

#endif // MOENTWINE_SWEEP_SWEEP_RUNNER_HH
