/**
 * @file
 * Replay of InferenceEngine::step() from outside the engine.
 *
 * ReplayEngine holds the same simulation state an engine holds
 * (workload generator, placement, EMA loads, trigger, balancers,
 * scratch traffic) and performs one step by calling the layers' public
 * functions in step()'s order, opening a host-time span around each
 * layer call. It covers the path the benchmark's workloads run: expert
 * parallelism (no ESP) without faults. Its IterationStats must equal a
 * real engine's bit for bit on the same configuration and demands —
 * the benchmark checks this, so the span split describes the real
 * step.
 */

#ifndef MOENTWINE_PERFBENCH_REPLAY_HH
#define MOENTWINE_PERFBENCH_REPLAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/moentwine.hh"
#include "measure.hh"

namespace perfbench {

/** Exact work counts accumulated over replayed steps. */
struct WorkCounts
{
    std::int64_t steps = 0;
    /** Gating draws: tokens × topK × DP per step. */
    std::int64_t draws = 0;
    /** Dispatch flows produced by routeTokens. */
    std::int64_t dispatchFlows = 0;
    /** Σ Topology::hops over dispatch flows. */
    std::int64_t hops = 0;
    /** Balancer triggers that ran a plan. */
    std::int64_t triggers = 0;
    std::int64_t migrationsPlanned = 0;
    std::int64_t migrationsCompleted = 0;
    /** Steps whose gating rows did not sum to tokens × topK. */
    std::int64_t badGatingSteps = 0;
    /** Steps whose combine flows were not the reversed dispatch. */
    std::int64_t badBytesSteps = 0;
};

/** Bitwise equality of every IterationStats field. */
bool sameStats(const moentwine::IterationStats &a,
               const moentwine::IterationStats &b);

/** Fold every IterationStats field into @p d. */
void digestStats(Digest &d, const moentwine::IterationStats &s);

class ReplayEngine
{
  public:
    /** @p mapping must outlive the replay. ESP is not replayed. */
    ReplayEngine(const moentwine::Mapping &mapping,
                 const moentwine::EngineConfig &cfg);

    /**
     * One step with @p demand. Spans go to @p spans when non-null;
     * counts and invariant checks accumulate into @p counts. Checking
     * byte conservation sorts every flow, so it runs only when
     * @p checkBytes is set.
     */
    moentwine::IterationStats step(const moentwine::IterationDemand &demand,
                                   SpanLog *spans, WorkCounts &counts,
                                   bool checkBytes);

    /** The fixed-budget demand of the configured schedule. */
    moentwine::IterationDemand configuredDemand() const;

  private:
    const moentwine::Mapping &mapping_;
    moentwine::EngineConfig cfg_;
    moentwine::CostModel cost_;
    moentwine::WorkloadGenerator workload_;
    moentwine::ExpertPlacement placement_;
    std::vector<double> emaLoads_;
    moentwine::RebalanceTrigger trigger_;
    std::unique_ptr<moentwine::Balancer> invasive_;
    std::unique_ptr<moentwine::NiBalancer> nonInvasive_;
    int iteration_ = 0;

    std::vector<std::vector<int>> counts_;
    moentwine::RoutedTraffic routed_;
    moentwine::PhaseTraffic a2a_;
    moentwine::PhaseTraffic disp_;
    moentwine::PhaseTraffic comb_;
    moentwine::CollectiveScratch ar_;
};

} // namespace perfbench

#endif // MOENTWINE_PERFBENCH_REPLAY_HH
