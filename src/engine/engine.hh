/**
 * @file
 * The MoEntwine inference engine: a per-iteration timeline model of MoE
 * serving on a mapped platform.
 *
 * Each iteration simulates one representative sparse layer (attention +
 * all-reduce, gating, dispatch, expert execution, combine). Following
 * PipeMoE, inputs are micro-batched so each phase's computation and
 * communication overlap: phase time = max(comp, comm) + min/stages.
 * Migration runs on a third stream:
 *  - invasive balancers (Greedy, Topology-aware) stop iteration and pay
 *    the Eq.(1) transfer cost of their migration flows on the critical
 *    path;
 *  - the Non-invasive balancer drains its pending transfers through the
 *    idle-link budgets of both phases, scaled by the number of sparse
 *    layers a real iteration provides (every layer opens one attention
 *    and one MoE window).
 *
 * Expert loads are tracked with an EMA; the Eq.(2) trigger decides when
 * to re-plan placement.
 */

#ifndef MOENTWINE_ENGINE_ENGINE_HH
#define MOENTWINE_ENGINE_ENGINE_HH

#include <memory>
#include <vector>

#include "balancer/balancer.hh"
#include "balancer/ni_balancer.hh"
#include "balancer/placement.hh"
#include "engine/token_router.hh"
#include "mapping/mapping.hh"
#include "model/cost_model.hh"
#include "model/moe_config.hh"
#include "network/collectives.hh"
#include "network/traffic.hh"
#include "obs/obs.hh"
#include "workload/workload.hh"

namespace moentwine {

class FaultInjector;
struct ExpertRehoming;

/** Which balancing strategy the engine runs. */
enum class BalancerKind
{
    None,          ///< static native placement
    Greedy,        ///< EPLB-style invasive balancing
    TopologyAware, ///< Algorithm 1, invasive
    NonInvasive,   ///< NI-Balancer (hidden migration)
};

/** Iteration composition (Section VI-C evaluates all three). */
enum class SchedulingMode
{
    PrefillOnly, ///< long-input prefill iterations
    DecodeOnly,  ///< single-token decode steps
    Hybrid,      ///< decode batch plus a prefill chunk per iteration
};

/** Engine configuration. */
struct EngineConfig
{
    /** Model under test. */
    MoEModelConfig model;
    /** Device specification. */
    DeviceSpec device{};
    /** Achievable fraction of peak GEMM throughput. */
    double gemmEfficiency = 0.6;
    /** Iteration composition. */
    SchedulingMode schedule = SchedulingMode::DecodeOnly;
    /** Decode tokens per TP group per iteration. */
    int decodeTokensPerGroup = 256;
    /** Prefill tokens per TP group per iteration. */
    int prefillTokensPerGroup = 2048;
    /** Average context length (KV entries). */
    double contextLen = 4096.0;
    /** Retain the all-gather half of the attention all-reduce. */
    bool retainAllGather = true;
    /** Micro-batch pipeline stages (PipeMoE-style overlap). */
    int pipelineStages = 4;
    /** Expert-sharding parallelism instead of pure EP (Fig. 14(a)). */
    bool esp = false;
    /** Shadow slots per device. */
    int shadowSlots = 1;
    /** Balancing strategy. */
    BalancerKind balancer = BalancerKind::None;
    /**
     * Hide invasive migration behind dedicated NVMe channels (GPU
     * platforms have local disks; WSCs do not — Section III-C). Only
     * meaningful with an invasive balancer.
     */
    bool migrationViaDisk = false;
    /** Eq.(2) cumulative imbalance threshold. */
    double alpha = 1.0;
    /** Eq.(2) minimum iterations between invasive migrations. */
    int beta = 10;
    /** EMA factor for expert-load prediction. */
    double emaAlpha = 0.3;
    /**
     * Aggregate dispatch/combine flows into the per-(src, dst) byte
     * matrix before the all-to-all (the fast path). Disable only for
     * the per-flow reference path flow_aggregation_test compares
     * bitwise against the fast path.
     */
    bool aggregateFlows = true;
    /**
     * Host-reload bandwidth (B/s) used when re-homing an expert after
     * device loss finds no reachable surviving replica: the weights
     * restream cold from host DRAM over the service fabric instead of
     * peer-to-peer over the mesh (fault recovery worst case).
     */
    double faultHostReloadBandwidth = 64e9;
    /** Gating / workload regime (expert count and top-k are taken from
     *  the model, not from this sub-config). */
    WorkloadConfig workload{};
};

/**
 * Dynamic per-iteration token demand, supplied by an online batching
 * layer (src/serve/) instead of the fixed EngineConfig budget. Either
 * component may be zero (e.g. a prefill-only admission burst or a pure
 * decode iteration); at least one must be positive to step the engine.
 */
struct IterationDemand
{
    /** Decode tokens per TP group this iteration. */
    int decodeTokensPerGroup = 0;
    /** Prefill-chunk tokens per TP group this iteration. */
    int prefillTokensPerGroup = 0;
    /**
     * Average context length (KV entries) of the decode batch; a
     * negative value falls back to EngineConfig::contextLen.
     */
    double contextLen = -1.0;

    /** Total tokens a TP group processes this iteration. */
    int tokensPerGroup() const
    {
        return decodeTokensPerGroup + prefillTokensPerGroup;
    }
};

/** Timeline breakdown of one simulated iteration (one sparse layer). */
struct IterationStats
{
    /** Per-device attention computation time. */
    double attnCompute = 0.0;
    /** Attention all-reduce time. */
    double allReduce = 0.0;
    /** MoE dispatch all-to-all time. */
    double dispatch = 0.0;
    /** MoE combine all-to-all time. */
    double combine = 0.0;
    /** Worst per-device expert execution time (compute + streaming). */
    double moeTime = 0.0;
    /** Compute component of the worst device. */
    double moeComputeOnly = 0.0;
    /** Weight-streaming component of the worst device. */
    double moeMemoryOnly = 0.0;
    /** ESP-mode all-reduce of expert partial sums (Fig. 14(a)). */
    double epAllReduce = 0.0;
    /** Invasive migration time exposed on the critical path. */
    double migrationOverhead = 0.0;
    /** Max routed tokens over devices. */
    double loadMax = 0.0;
    /** Mean routed tokens over devices. */
    double loadAvg = 0.0;
    /** Device imbalance degree (max-mean)/mean. */
    double imbalance = 0.0;
    /** Migrations planned this iteration. */
    int migrationsPlanned = 0;
    /** Hidden migrations completed this iteration (NI only). */
    int migrationsCompleted = 0;
    /** Hidden migrations still pending (NI only). */
    int migrationsPending = 0;
    /** Fault events this step() applied at its boundary (0 when an
     *  outer layer advanced the shared injector first). */
    int faultEventsApplied = 0;
    /** Critical-path expert re-homing time after device loss. */
    double faultRecoveryTime = 0.0;

    /** MoE all-to-all total. */
    double allToAll() const { return dispatch + combine; }

    /** Attention phase with compute/communication overlap. */
    double attnPhase(int stages) const;

    /** MoE phase with compute/communication overlap. */
    double moePhase(int stages) const;

    /** Iteration latency of the representative layer. */
    double layerTime(int stages) const
    {
        return attnPhase(stages) + moePhase(stages) + migrationOverhead +
            faultRecoveryTime;
    }
};

/**
 * Multi-iteration MoE serving simulator.
 */
class InferenceEngine
{
  public:
    /**
     * @param mapping Mapping (and topology) to simulate on; must
     *                outlive the engine.
     * @param cfg     Engine configuration.
     */
    InferenceEngine(const Mapping &mapping, const EngineConfig &cfg);

    /**
     * Re-arm this engine for a fresh simulation under @p cfg on the
     * same mapping, as if it had just been constructed — same RNG
     * stream, same placement, same balancer state, detached faults
     * and observability. The point of resetting instead of
     * reconstructing is scratch reuse: the per-iteration buffers
     * (traffic accumulators, routed-flow scratch, counts matrices,
     * collective buffers) keep their steady-state capacity, so a
     * sweep worker running many same-platform cells pays the big
     * allocations once instead of per cell. The determinism contract
     * is strict and test-pinned: a reset engine's timeline is bitwise
     * identical to a newly constructed engine's for any prior history
     * (tests/engine_test.cpp, tests/sweep_test.cpp).
     */
    void reset(const EngineConfig &cfg);

    /**
     * Simulate one iteration with the fixed per-schedule token budget
     * of the configuration and advance balancing state.
     */
    IterationStats step();

    /**
     * Simulate one iteration with an externally supplied token demand
     * (the serving layer's continuous-batching path). The fixed-budget
     * step() is a thin wrapper over this.
     */
    IterationStats step(const IterationDemand &demand);

    /** Simulate @p iterations and return all per-iteration stats. */
    std::vector<IterationStats> run(int iterations);

    /** Current expert placement. */
    const ExpertPlacement &placement() const { return placement_; }

    /**
     * The engine's workload generator. Mutable access so an online
     * serving layer can couple the gating mixture to the scenario mix
     * of the requests it actually admitted
     * (WorkloadGenerator::setScenarioMix()).
     */
    WorkloadGenerator &workload() { return workload_; }

    /** The configuration in use. */
    const EngineConfig &config() const { return cfg_; }

    /** Tokens per group for the configured scheduling mode. */
    int tokensPerGroup() const;

    /**
     * Attach a fault injector (src/fault/) whose events this engine
     * consumes at iteration boundaries: traffic retargets onto the
     * degraded topology, stragglers scale per-device compute, and lost
     * devices get their experts re-homed (recovery charged to the
     * iteration). Must be called before the first step(); the injector
     * must shadow this engine's topology and outlive it. A null or
     * empty-plan injector detaches — the engine then runs the exact
     * fault-free code path, bitwise identical to an unattached run.
     * Unsupported under ESP.
     */
    void attachFaults(FaultInjector *injector);

    /** Degraded overlay when faults are attached, else the mapping's. */
    const Topology &activeTopology() const;

    /**
     * Attach observability hooks (src/obs/). Must be called before the
     * first step(); the referenced registry/sink must outlive the
     * engine. Publication is purely additive — a run with hooks
     * attached computes bitwise the same IterationStats as one
     * without, and ObsHooks{} (all-null) detaches. Stat names live
     * under "engine."; trace spans are emitted on the engine's own
     * virtual clock (cumulative layerTime of the stepped iterations)
     * under the hooks' tracePid.
     */
    void attachObs(const ObsHooks &obs);

  private:
    /** (Re)create the balancer objects for cfg_.balancer. */
    void makeBalancer();

    /** Apply the fault boundary of the current iteration. */
    void syncFaults(IterationStats &stats);

    /** Publish stats/trace for the iteration just computed. */
    void publishObs(const IterationStats &stats);

    /** Critical-path cost of re-homing experts off a lost device. */
    double recoveryTime(const std::vector<ExpertRehoming> &rehomed) const;
    /** Attention compute time for the given token demand. */
    double attentionCompute(const IterationDemand &demand) const;

    /** The fixed-budget demand of the configured scheduling mode. */
    IterationDemand configuredDemand() const;

    const Mapping &mapping_;
    EngineConfig cfg_;
    CostModel cost_;
    WorkloadGenerator workload_;
    ExpertPlacement placement_;
    std::vector<double> emaLoads_;
    RebalanceTrigger trigger_;
    std::unique_ptr<Balancer> invasive_;
    std::unique_ptr<NiBalancer> nonInvasive_;
    int iteration_ = 0;

    // Fault state: null (the guaranteed-identical fast path) unless a
    // non-empty injector is attached. The engine reacts to injector
    // *state* — the topology epoch and the lost-device list — so a
    // serving layer sharing the injector may advance it first.
    FaultInjector *faults_ = nullptr;
    int faultTopoEpochSeen_ = 0;
    std::size_t faultLostSeen_ = 0;

    // Observability: null hooks are the guaranteed-identical fast path
    // (one pointer test per step). Handles are resolved at attach time
    // so the per-iteration publish is allocation- and lookup-free.
    ObsHooks obs_{};
    double traceNow_ = 0.0;
    std::uint64_t obsCompactionsSeen_ = 0;
    struct ObsHandles
    {
        StatRegistry::Handle iterations;
        StatRegistry::Handle attnCompute;
        StatRegistry::Handle allReduce;
        StatRegistry::Handle dispatch;
        StatRegistry::Handle combine;
        StatRegistry::Handle moe;
        StatRegistry::Handle layer;
        StatRegistry::Handle imbalance;
        StatRegistry::Handle migPlanned;
        StatRegistry::Handle migCompleted;
        StatRegistry::Handle migPending;
        StatRegistry::Handle faultEvents;
        StatRegistry::Handle faultRecovery;
        StatRegistry::Handle compactions;
    } obsHandles_{};

    // Per-iteration scratch, reused across step() calls so the hot
    // path performs no steady-state allocation. All mutable state of a
    // simulation lives here (or in the members above): the mapping and
    // topology are only ever read, which is what lets sweep workers
    // share one const System across threads.
    std::vector<std::vector<int>> countsScratch_;
    std::vector<double> expertLoadsScratch_;
    std::vector<double> espTokensScratch_;
    RoutedTraffic routedScratch_;
    PhaseTraffic a2aTraffic_;
    PhaseTraffic dispTraffic_;
    PhaseTraffic combTraffic_;
    // Collective buffers: attention all-reduce and ESP expert
    // all-reduce (the FTD ring orders themselves are memoised by the
    // mapping; see Mapping::ftdRings()).
    CollectiveScratch arScratch_;
    CollectiveScratch espScratch_;
};

} // namespace moentwine

#endif // MOENTWINE_ENGINE_ENGINE_HH
