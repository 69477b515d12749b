/**
 * @file
 * The benchmark's three workloads. Each is a closed loop with one
 * client: the benchmark runs whole passes back to back. A pass simulates
 * a fixed amount of work from the workload seed, so every pass of one
 * invocation must produce the same output digest.
 *
 *  - balance_sweep   — the Fig. 16 grid (48 cells × 80 iterations) on
 *                      the SweepRunner pool.
 *  - wafer_decode_1k — DeepSeek-V3 decode with NI-Balancer on a
 *                      1024-device 4 × (16×16) HER system, serial.
 *  - serve_fleet     — four independent 4-replica fleets serving bursty
 *                      streams, one replica each under a fault plan,
 *                      serial.
 *
 * Every layer is timed from outside, around calls into its public
 * functions; nothing here changes a simulated result.
 */

#ifndef MOENTWINE_PERFBENCH_WORKLOADS_HH
#define MOENTWINE_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "replay.hh"
#include "sweep/sweep.hh"

namespace perfbench {

/** What one timed pass did and produced. */
struct PassResult
{
    /** Host seconds of the pass. */
    double wall = 0.0;
    /** Host CPU seconds (user + system) the process spent in it. */
    double cpu = 0.0;
    /** Engine iterations simulated. */
    std::int64_t iterations = 0;
    /** Requests run to completion (serve_fleet). */
    std::int64_t requests = 0;
    /** Digest of the simulated outputs. */
    std::uint64_t digest = 0;
    /** Empty when every output check passed, else the first failure. */
    std::string failure;
    /** Mean IterationStats::layerTime over measured iterations (s). */
    double simLayer = 0.0;
    /** Fleet outcomes (serve_fleet). */
    double goodputRps = 0.0;
    double ttftP99 = 0.0;
    std::int64_t shed = 0;
    std::int64_t retries = 0;
    /** Scheduler counters of the pass's SweepRunner::run. */
    moentwine::SweepRunStats sweep;
    /** Host µs of each InferenceEngine::step the pass made itself. */
    std::vector<double> stepUs;
};

/** Host seconds of one set-up, whole and split by layer. */
struct SetupTimes
{
    /** Config to a simulator ready to step. */
    double total = 0.0;
    /** Topology construction plus the all-pairs route build. */
    double routeBuild = 0.0;
    /** Mapping construction plus its dispatch memos. */
    double mappingBuild = 0.0;
};

/** Result of replaying a workload's steps through ReplayEngine. */
struct LayerResult
{
    /** Exact counts and invariant violations over the replayed steps. */
    WorkCounts counts;
    /** Steps where the replay's stats differed from the engine's. */
    std::int64_t mismatchedSteps = 0;
    /** Host µs of each untraced InferenceEngine::step of the run. */
    std::vector<double> stepUs;
    /** Self seconds per span name over the traced replay. */
    std::vector<std::pair<std::string, double>> selfTimes;
    /** serve_fleet: pass wall minus replayed engine time, per
     *  iteration (µs). */
    double frontendUsPerIter = 0.0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Cores a pass keeps busy (warm-up spins this many). */
    virtual int cores() const = 0;

    /** Build, time and discard one ready-to-step simulator. */
    virtual SetupTimes setup() const = 0;

    /** One timed pass. */
    virtual PassResult pass() = 0;

    /**
     * Step through the engine and ReplayEngine side by side, checking
     * the replay against the engine and the layer invariants. With
     * @p spans the replay records layer spans and covers the whole
     * pass; without, it is a short check of @p checkSteps steps per
     * cell that also verifies byte conservation.
     */
    virtual LayerResult layers(SpanLog *spans, int checkSteps) = 0;

    /**
     * Once-per-invocation, untimed check that does not fit a pass
     * (balance_sweep: rows at 1 worker equal rows at the pool size).
     * Returns an empty string on success, else the failure; sets
     * @p seconds to the host time of its 1-worker pass (0 when the
     * workload has no such check).
     */
    virtual std::string crossCheck(double &seconds)
    {
        seconds = 0.0;
        return {};
    }
};

/** Names of the workloads, in their canonical order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed, with @p jobs sweep workers for
 * balance_sweep; null for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, int jobs);

/** Derive a sub-seed for @p stream from the workload seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

} // namespace perfbench

#endif // MOENTWINE_PERFBENCH_WORKLOADS_HH
