/**
 * @file
 * Shared worker-count resolution for the bench drivers.
 *
 * Every driver honours the same convention:
 *   `--jobs N` argument (last occurrence wins) > `MOENTWINE_JOBS` env
 *   > CPUs in the affinity mask
 * makeRunner() is the one place that convention is applied, so a
 * driver's main() reduces to `benchjobs::makeRunner(argc, argv)`.
 */

#ifndef MOENTWINE_BENCH_JOBS_HH
#define MOENTWINE_BENCH_JOBS_HH

#include "sweep/sweep_runner.hh"

namespace moentwine {
namespace benchjobs {

/** A SweepRunner sized by a driver's command line. */
inline SweepRunner
makeRunner(int argc, char **argv)
{
    return SweepRunner(SweepRunner::jobsFromArgs(argc, argv));
}

} // namespace benchjobs
} // namespace moentwine

#endif // MOENTWINE_BENCH_JOBS_HH
