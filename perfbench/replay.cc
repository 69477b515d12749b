#include "replay.hh"

#include <algorithm>

#include "common/logging.hh"

using namespace moentwine;

namespace perfbench {

namespace {

/** Every IterationStats field, in declaration order. */
template <typename F>
void
forEachField(const IterationStats &s, F &&f)
{
    f(s.attnCompute);
    f(s.allReduce);
    f(s.dispatch);
    f(s.combine);
    f(s.moeTime);
    f(s.moeComputeOnly);
    f(s.moeMemoryOnly);
    f(s.epAllReduce);
    f(s.migrationOverhead);
    f(s.loadMax);
    f(s.loadAvg);
    f(s.imbalance);
    f(static_cast<double>(s.migrationsPlanned));
    f(static_cast<double>(s.migrationsCompleted));
    f(static_cast<double>(s.migrationsPending));
    f(static_cast<double>(s.faultEventsApplied));
    f(s.faultRecoveryTime);
}

WorkloadConfig
engineWorkload(const EngineConfig &cfg)
{
    WorkloadConfig w = cfg.workload;
    w.numExperts = cfg.model.expertsTotal;
    w.topK = cfg.model.expertsActivated;
    return w;
}

} // namespace

bool
sameStats(const IterationStats &a, const IterationStats &b)
{
    Digest da;
    Digest db;
    digestStats(da, a);
    digestStats(db, b);
    return da.value() == db.value();
}

void
digestStats(Digest &d, const IterationStats &s)
{
    forEachField(s, [&d](double v) { d.add(v); });
}

ReplayEngine::ReplayEngine(const Mapping &mapping, const EngineConfig &cfg)
    : mapping_(mapping),
      cfg_(cfg),
      cost_(cfg.device, cfg.gemmEfficiency),
      workload_(engineWorkload(cfg)),
      placement_(cfg.model.expertsTotal, mapping.numDevices(),
                 cfg.shadowSlots),
      emaLoads_(static_cast<std::size_t>(cfg.model.expertsTotal), 0.0),
      trigger_(cfg.alpha,
               cfg.balancer == BalancerKind::NonInvasive ? 0 : cfg.beta),
      a2a_(mapping.topology()),
      disp_(mapping.topology()),
      comb_(mapping.topology()),
      ar_(mapping.topology())
{
    if (cfg.esp)
        fatal("perfbench replays the expert-parallel step only");
    switch (cfg.balancer) {
      case BalancerKind::None:
        break;
      case BalancerKind::Greedy:
        invasive_ = std::make_unique<GreedyBalancer>();
        break;
      case BalancerKind::TopologyAware:
        invasive_ = std::make_unique<TopologyAwareBalancer>(
            mapping.topology());
        break;
      case BalancerKind::NonInvasive:
        nonInvasive_ =
            std::make_unique<NiBalancer>(mapping, cfg.model.expertBytes);
        break;
    }
}

IterationDemand
ReplayEngine::configuredDemand() const
{
    IterationDemand demand;
    switch (cfg_.schedule) {
      case SchedulingMode::PrefillOnly:
        demand.prefillTokensPerGroup = cfg_.prefillTokensPerGroup;
        break;
      case SchedulingMode::DecodeOnly:
        demand.decodeTokensPerGroup = cfg_.decodeTokensPerGroup;
        break;
      case SchedulingMode::Hybrid:
        demand.decodeTokensPerGroup = cfg_.decodeTokensPerGroup;
        demand.prefillTokensPerGroup = cfg_.prefillTokensPerGroup / 4;
        break;
    }
    return demand;
}

IterationStats
ReplayEngine::step(const IterationDemand &demand, SpanLog *spans,
                   WorkCounts &counts, bool checkBytes)
{
    const ScopedSpan stepSpan(spans, "step");
    IterationStats stats;
    const int tokens = demand.tokensPerGroup();
    const double tokenBytes = cfg_.model.tokenBytes();
    const Topology &topo = mapping_.topology();
    const int stages = cfg_.pipelineStages;

    // Attention: cost model plus the TP all-reduce.
    const double ctx =
        demand.contextLen < 0.0 ? cfg_.contextLen : demand.contextLen;
    if (demand.decodeTokensPerGroup > 0) {
        stats.attnCompute += cost_.attentionTime(
            cfg_.model, demand.decodeTokensPerGroup, mapping_.tp(), ctx,
            Stage::Decode);
    }
    if (demand.prefillTokensPerGroup > 0) {
        stats.attnCompute += cost_.attentionTime(
            cfg_.model, demand.prefillTokensPerGroup, mapping_.tp(), ctx,
            Stage::Prefill);
    }
    {
        const ScopedSpan s(spans, "network.allreduce");
        stats.allReduce = mapping_.allReduceInto(
            topo, tokens * tokenBytes, cfg_.retainAllGather, ar_);
    }

    // Gating.
    {
        const ScopedSpan s(spans, "workload.sample");
        workload_.sampleCountsInto(iteration_, 0, tokens, mapping_.dp(),
                                   counts_);
    }
    counts.draws += static_cast<std::int64_t>(tokens) *
        cfg_.model.expertsActivated * mapping_.dp();
    if (badGatingRows(counts_, tokens, cfg_.model.expertsActivated) != 0 ||
        counts_.size() != static_cast<std::size_t>(mapping_.dp())) {
        ++counts.badGatingSteps;
    }

    // MoE phase: routing, the two all-to-alls, expert cost.
    a2a_.clear();
    {
        const ScopedSpan s(spans, "engine.route");
        routeTokens(mapping_, placement_, counts_, tokenBytes,
                    cfg_.retainAllGather, cfg_.model.expertsActivated,
                    routed_, cfg_.aggregateFlows);
    }
    counts.dispatchFlows +=
        static_cast<std::int64_t>(routed_.dispatch.size());
    for (const Flow &f : routed_.dispatch)
        counts.hops += topo.hops(f.src, f.dst);
    if (checkBytes &&
        !dispatchEqualsCombine(routed_.dispatch, routed_.combine)) {
        ++counts.badBytesSteps;
    }
    {
        const ScopedSpan s(spans, "network.a2a");
        stats.dispatch = allToAllInto(routed_.dispatch, disp_);
        stats.combine = allToAllInto(routed_.combine, comb_);
        a2a_.merge(disp_);
        a2a_.merge(comb_);
    }
    {
        const ScopedSpan s(spans, "engine.moe_cost");
        for (DeviceId d = 0; d < mapping_.numDevices(); ++d) {
            const auto i = static_cast<std::size_t>(d);
            const MoeDeviceCost c =
                cost_.moeDevice(cfg_.model, routed_.tokensPerDevice[i],
                                routed_.activeExpertsPerDevice[i], 1.0);
            if (c.total() > stats.moeTime) {
                stats.moeTime = c.total();
                stats.moeComputeOnly = c.computeTime;
                stats.moeMemoryOnly = c.memoryTime;
            }
        }
    }

    // Load statistics and the EMA prediction.
    double sum = 0.0;
    for (const double t : routed_.tokensPerDevice) {
        stats.loadMax = std::max(stats.loadMax, t);
        sum += t;
    }
    stats.loadAvg =
        sum / static_cast<double>(routed_.tokensPerDevice.size());
    stats.imbalance = stats.loadAvg > 0.0
        ? (stats.loadMax - stats.loadAvg) / stats.loadAvg
        : 0.0;
    for (std::size_t e = 0; e < emaLoads_.size(); ++e) {
        emaLoads_[e] = cfg_.emaAlpha * routed_.expertLoads[e] +
            (1.0 - cfg_.emaAlpha) * emaLoads_[e];
    }

    // Balancing.
    if (cfg_.balancer != BalancerKind::None &&
        trigger_.poll(stats.imbalance)) {
        const ScopedSpan s(spans, "balancer.plan");
        ++counts.triggers;
        if (invasive_) {
            const auto steps = invasive_->rebalance(emaLoads_, placement_);
            stats.migrationsPlanned = static_cast<int>(steps.size());
            PhaseTraffic mig(topo);
            double slowest = 0.0;
            for (const MigrationStep &m : steps) {
                mig.addFlow(m.srcDevice, m.dstDevice,
                            cfg_.model.expertBytes);
                slowest = std::max(slowest,
                                   flowTime(topo, m.srcDevice, m.dstDevice,
                                            cfg_.model.expertBytes));
            }
            stats.migrationOverhead = cfg_.migrationViaDisk
                ? 0.0
                : std::max(slowest, mig.phaseTime());
        } else {
            stats.migrationsPlanned =
                nonInvasive_->plan(emaLoads_, placement_);
        }
    }
    if (nonInvasive_) {
        const ScopedSpan s(spans, "balancer.advance");
        const double layers = cfg_.model.sparseLayers;
        const double attnWindow = stats.attnPhase(stages) * layers;
        const double moeWindow = stats.moePhase(stages) * layers;
        stats.migrationsCompleted =
            nonInvasive_->advanceAttention(ar_.traffic, attnWindow,
                                           placement_) +
            nonInvasive_->advanceMoe(a2a_, moeWindow, placement_);
        stats.migrationsPending =
            static_cast<int>(nonInvasive_->pendingCount());
    }
    counts.migrationsPlanned += stats.migrationsPlanned;
    counts.migrationsCompleted += stats.migrationsCompleted;
    ++counts.steps;
    ++iteration_;
    return stats;
}

} // namespace perfbench
