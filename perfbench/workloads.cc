#include "workloads.hh"

#include "cluster/cluster.hh"
#include "fault/scenarios.hh"
#include "fig16_grid.hh"

using namespace moentwine;

namespace perfbench {

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 finaliser over (seed, stream).
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "balance_sweep", "wafer_decode_1k", "serve_fleet"};
    return names;
}

namespace {

/**
 * System::make for the wafer platforms, rebuilt from public pieces so
 * the route build and the mapping build are timed apart.
 */
SetupTimes
timeSystemBuild(const SystemConfig &sc)
{
    MOE_ASSERT(sc.platform == PlatformKind::WscEr ||
                   sc.platform == PlatformKind::WscHer,
               "timeSystemBuild covers the wafer platforms");
    SetupTimes t;
    const double t0 = nowSeconds();
    MeshTopology mesh = MeshTopology::waferRow(sc.wafers, sc.meshN);
    mesh.setRouteStorage(sc.routeStorage);
    mesh.finalizeRoutes();
    const double t1 = nowSeconds();
    std::unique_ptr<Mapping> mapping;
    if (sc.platform == PlatformKind::WscHer) {
        mapping = std::make_unique<HierarchicalErMapping>(
            mesh, decomposeTp(sc.tp, mesh.waferRows(), mesh.waferCols()));
    } else {
        mapping = std::make_unique<ErMapping>(
            mesh, decomposeTp(sc.tp, mesh.rows(), mesh.cols()));
    }
    mapping->setTrafficStorage(sc.trafficStorage);
    mapping->prewarmCaches();
    const double t2 = nowSeconds();
    t.routeBuild = t1 - t0;
    t.mappingBuild = t2 - t1;
    return t;
}

/** Run @p fn as the single cell of a serial SweepRunner pass. */
template <typename F>
PassResult
serialPass(F &&fn)
{
    SweepGrid grid;
    grid.params = {0.0};
    const SweepRunner runner(1);
    PassResult r;
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    runner.run(
        grid,
        [&](const SweepCell &) {
            fn(r);
            return SweepResult{};
        },
        &r.sweep);
    r.wall = nowSeconds() - t0;
    r.cpu = processCpuSeconds() - cpu0;
    return r;
}

/** Step @p engine @p n times, timing each call. */
template <typename StepFn>
std::vector<IterationStats>
timedSteps(int n, std::vector<double> &stepUs, StepFn &&step)
{
    std::vector<IterationStats> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const double t0 = nowSeconds();
        out.push_back(step(i));
        stepUs.push_back((nowSeconds() - t0) * 1e6);
    }
    return out;
}

/** Replay @p n steps and count those that differ from @p expected. */
template <typename DemandFn>
void
replaySteps(ReplayEngine &replay, const std::vector<IterationStats> &expected,
            SpanLog *spans, DemandFn &&demand, LayerResult &out)
{
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const IterationStats s = replay.step(
            demand(static_cast<int>(i)), spans, out.counts, spans == nullptr);
        if (!sameStats(s, expected[i]))
            ++out.mismatchedSteps;
    }
}

// ------------------------------------------------------------ balance_sweep

class BalanceSweep : public Workload
{
  public:
    BalanceSweep(std::uint64_t seed, int jobs)
        : seed_(seed), jobs_(jobs), grid_(benchgrid::fig16BalancingGrid()),
          system_(System::make(grid_.pointAt(0).systemConfig()))
    {
    }

    const char *name() const override { return "balance_sweep"; }
    int cores() const override { return jobs_; }

    SetupTimes setup() const override
    {
        const SweepPoint p = grid_.pointAt(0);
        SetupTimes t = timeSystemBuild(p.systemConfig());
        const double t0 = nowSeconds();
        const System sys = System::make(p.systemConfig());
        const InferenceEngine engine(sys.mapping(), cellConfig(p));
        t.total = nowSeconds() - t0;
        return t;
    }

    PassResult pass() override { return runGrid(jobs_, nullptr); }

    std::string crossCheck(double &seconds) override
    {
        std::vector<std::uint64_t> pool;
        std::vector<std::uint64_t> serial;
        runGrid(jobs_, &pool);
        seconds = runGrid(1, &serial).wall;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (pool[i] != serial[i]) {
                return "cell " + std::to_string(i) + " differs between " +
                    std::to_string(jobs_) + " workers and 1 worker";
            }
        }
        return {};
    }

    LayerResult layers(SpanLog *spans, int checkSteps) override
    {
        LayerResult out;
        const int steps =
            spans != nullptr ? benchgrid::kFig16Iterations : checkSteps;
        for (std::size_t c = 0; c < grid_.cells(); ++c) {
            const EngineConfig ec = cellConfig(grid_.pointAt(c));
            InferenceEngine engine(system_.mapping(), ec);
            const auto expected = timedSteps(
                steps, out.stepUs, [&](int) { return engine.step(); });
            ReplayEngine replay(system_.mapping(), ec);
            replaySteps(replay, expected, spans,
                        [&](int) { return replay.configuredDemand(); }, out);
        }
        return out;
    }

  private:
    EngineConfig cellConfig(const SweepPoint &p) const
    {
        EngineConfig ec = benchgrid::fig16EngineConfig(p);
        ec.workload.seed = p.seed(seed_);
        return ec;
    }

    /** One pass over the grid; per-cell digests into @p cellDigests. */
    PassResult runGrid(int jobs, std::vector<std::uint64_t> *cellDigests)
    {
        const std::size_t cells = grid_.cells();
        std::vector<std::uint64_t> digests(cells);
        std::vector<double> layerSum(cells);
        std::vector<std::vector<double>> stepUs(cells);
        SweepOptions opts;
        opts.jobs = jobs;
        const SweepRunner runner(opts);
        PassResult r;
        const double cpu0 = processCpuSeconds();
        const double t0 = nowSeconds();
        runner.run(
            grid_,
            [&](const SweepCell &cell) {
                const EngineConfig ec = cellConfig(cell.point);
                InferenceEngine &engine =
                    cell.worker->engine(cell.system->mapping(), ec);
                std::vector<double> &times = stepUs[cell.point.index];
                Digest d;
                double layer = 0.0;
                const auto trace =
                    timedSteps(benchgrid::kFig16Iterations, times,
                               [&](int) { return engine.step(); });
                for (std::size_t i = 0; i < trace.size(); ++i) {
                    digestStats(d, trace[i]);
                    if (i >= static_cast<std::size_t>(benchgrid::kFig16Warmup))
                        layer += trace[i].layerTime(ec.pipelineStages);
                }
                digests[cell.point.index] = d.value();
                layerSum[cell.point.index] = layer;
                return SweepResult{};
            },
            &r.sweep);
        r.wall = nowSeconds() - t0;
        r.cpu = processCpuSeconds() - cpu0;
        Digest all;
        double layer = 0.0;
        for (std::size_t c = 0; c < cells; ++c) {
            all.add(static_cast<std::int64_t>(digests[c]));
            layer += layerSum[c];
            r.stepUs.insert(r.stepUs.end(), stepUs[c].begin(),
                            stepUs[c].end());
        }
        r.digest = all.value();
        r.iterations =
            static_cast<std::int64_t>(cells) * benchgrid::kFig16Iterations;
        r.simLayer = layer /
            static_cast<double>(cells * benchgrid::kFig16Measured);
        if (cellDigests != nullptr)
            *cellDigests = std::move(digests);
        return r;
    }

    std::uint64_t seed_;
    int jobs_;
    SweepGrid grid_;
    System system_;
};

// ---------------------------------------------------------- wafer_decode_1k

class WaferDecode : public Workload
{
  public:
    /** Iterations of one pass. */
    static constexpr int kIterations = 24;

    explicit WaferDecode(std::uint64_t seed)
        : sc_(systemConfig()), ec_(engineConfig(seed)),
          system_(System::make(sc_)), engine_(system_.mapping(), ec_)
    {
    }

    const char *name() const override { return "wafer_decode_1k"; }
    int cores() const override { return 1; }

    SetupTimes setup() const override
    {
        SetupTimes t = timeSystemBuild(sc_);
        const double t0 = nowSeconds();
        const System sys = System::make(sc_);
        const InferenceEngine engine(sys.mapping(), ec_);
        t.total = nowSeconds() - t0;
        return t;
    }

    PassResult pass() override
    {
        return serialPass([&](PassResult &r) {
            engine_.reset(ec_);
            const auto trace = timedSteps(kIterations, r.stepUs,
                                          [&](int) { return engine_.step(); });
            Digest d;
            double layer = 0.0;
            for (const IterationStats &s : trace) {
                digestStats(d, s);
                layer += s.layerTime(ec_.pipelineStages);
            }
            r.digest = d.value();
            r.iterations = kIterations;
            r.simLayer = layer / kIterations;
        });
    }

    LayerResult layers(SpanLog *spans, int checkSteps) override
    {
        LayerResult out;
        const int steps = spans != nullptr ? kIterations : checkSteps;
        engine_.reset(ec_);
        const auto expected = timedSteps(steps, out.stepUs,
                                         [&](int) { return engine_.step(); });
        ReplayEngine replay(system_.mapping(), ec_);
        replaySteps(replay, expected, spans,
                    [&](int) { return replay.configuredDemand(); }, out);
        return out;
    }

  private:
    static SystemConfig systemConfig()
    {
        SystemConfig sc;
        sc.platform = PlatformKind::WscHer;
        sc.meshN = 16;
        sc.wafers = 4;
        sc.tp = 16;
        return sc;
    }

    static EngineConfig engineConfig(std::uint64_t seed)
    {
        EngineConfig ec;
        ec.model = deepseekV3();
        ec.schedule = SchedulingMode::DecodeOnly;
        ec.decodeTokensPerGroup = 32 * 16;
        ec.workload.mode = GatingMode::MixedScenario;
        ec.workload.mixPeriod = 60;
        ec.workload.seed = subSeed(seed, 1);
        ec.balancer = BalancerKind::NonInvasive;
        ec.alpha = 0.5;
        ec.beta = 5;
        return ec;
    }

    SystemConfig sc_;
    EngineConfig ec_;
    System system_;
    InferenceEngine engine_;
};

// -------------------------------------------------------------- serve_fleet

class ServeFleet : public Workload
{
  public:
    /** Independent fleets (own stream and seeds) a pass runs. */
    static constexpr int kFleets = 4;
    static constexpr int kReplicas = 4;
    static constexpr int kRequests = 1000;
    /** Replica carrying the fault plan. */
    static constexpr int kFaultyReplica = 1;

    explicit ServeFleet(std::uint64_t seed)
        : system_(System::make(replicaSystem()))
    {
        for (int k = 0; k < kFleets; ++k) {
            cfgs_.push_back(fleetConfig(
                subSeed(seed, 1000 + static_cast<std::uint64_t>(k))));
        }
    }

    const char *name() const override { return "serve_fleet"; }
    int cores() const override { return 1; }

    SetupTimes setup() const override
    {
        SetupTimes t = timeSystemBuild(replicaSystem());
        const double t0 = nowSeconds();
        const FleetSimulator fleet(cfgs_.front());
        t.total = nowSeconds() - t0;
        return t;
    }

    PassResult pass() override
    {
        PassResult r = serialPass([&](PassResult &out) {
            last_.clear();
            Digest d;
            double layerSum = 0.0;
            std::int64_t layerCount = 0;
            for (const FleetConfig &cfg : cfgs_) {
                FleetSimulator fleet(cfg);
                last_.push_back(fleet.run());
                const FleetReport &f = last_.back();
                const DistributionView layer =
                    fleet.stats().distributionView("engine.iter.layer_s");
                layerSum += layer.sum;
                layerCount += layer.count;
                out.iterations += f.iterationsTotal;
                out.requests += f.completedRequests;
                out.goodputRps += f.goodputRequestsPerSec / kFleets;
                out.ttftP99 += f.ttftP99 / kFleets;
                out.shed += f.shedRequests + f.frontDoorShed;
                out.retries += f.retriesTotal;
                if (out.failure.empty() && !fleetConserved(f))
                    out.failure = "fleet request conservation violated";
                if (out.failure.empty() &&
                    (f.iterationsTotal <= 0 || f.completedRequests <= 0)) {
                    out.failure = "fleet completed no work";
                }
                digestFleet(d, f);
            }
            out.simLayer = layerSum / static_cast<double>(layerCount);
            d.add(out.simLayer);
            out.digest = d.value();
        });
        lastWall_ = r.wall;
        return r;
    }

    LayerResult layers(SpanLog *spans, int checkSteps) override
    {
        if (last_.empty())
            pass();
        LayerResult out;
        double engineSeconds = 0.0;
        std::int64_t iterations = 0;
        for (std::size_t k = 0; k < last_.size(); ++k) {
            iterations += last_[k].iterationsTotal;
            for (std::size_t i = 0; i < last_[k].replicas.size(); ++i) {
                // The serving layer always gates from the scenario mixture.
                EngineConfig ec = cfgs_[k].replicas[i].serve.engine;
                ec.workload.mode = GatingMode::MixedScenario;
                const auto &trace = last_[k].replicas[i].trace;
                const int steps = spans != nullptr
                    ? static_cast<int>(trace.size())
                    : std::min(checkSteps, static_cast<int>(trace.size()));
                const auto demand = [&](int n) {
                    const ServeTracePoint &p =
                        trace[static_cast<std::size_t>(n)];
                    IterationDemand dm;
                    dm.decodeTokensPerGroup = p.decodeTokens;
                    dm.prefillTokensPerGroup = p.prefillTokens;
                    return dm;
                };
                InferenceEngine engine(system_.mapping(), ec);
                const std::size_t before = out.stepUs.size();
                const auto expected =
                    timedSteps(steps, out.stepUs,
                               [&](int n) { return engine.step(demand(n)); });
                for (std::size_t n = before; n < out.stepUs.size(); ++n)
                    engineSeconds += out.stepUs[n] * 1e-6;
                ReplayEngine replay(system_.mapping(), ec);
                replaySteps(replay, expected, spans, demand, out);
            }
        }
        out.frontendUsPerIter = (lastWall_ - engineSeconds) * 1e6 /
            static_cast<double>(iterations);
        return out;
    }

  private:
    static SystemConfig replicaSystem()
    {
        SystemConfig wsc;
        wsc.platform = PlatformKind::WscEr;
        wsc.meshN = 4;
        wsc.tp = 4;
        return wsc;
    }

    static FleetConfig fleetConfig(std::uint64_t seed)
    {
        const SystemConfig wsc = replicaSystem();
        FleetConfig fc;
        for (int i = 0; i < kReplicas; ++i) {
            ReplicaConfig rc;
            rc.system = wsc;
            ServeConfig &sc = rc.serve;
            sc.engine.model = qwen3();
            sc.engine.workload.seed =
                subSeed(seed, 100 + static_cast<std::uint64_t>(i));
            sc.engine.balancer = BalancerKind::NonInvasive;
            sc.engine.alpha = 0.5;
            sc.engine.beta = 5;
            sc.scheduler.kvBudgetTokens = 16384;
            sc.scheduler.maxRunningRequests = 32;
            sc.scheduler.prefillChunkTokens = 512;
            sc.slo.ttft = 0.05;
            sc.slo.tpot = 0.005;
            sc.coupleDrift = true;
            if (i == kFaultyReplica) {
                const MeshTopology mesh =
                    MeshTopology::waferRow(wsc.wafers, wsc.meshN);
                sc.faults =
                    makeFaultScenario(FaultScenarioKind::Cascade, mesh);
            }
            fc.replicas.push_back(rc);
        }
        fc.arrival.kind = ArrivalKind::Bursty;
        fc.arrival.ratePerSec = 150.0;
        fc.arrival.mixDriftPeriodSec = 4.0;
        fc.arrival.promptMeanTokens = 256;
        fc.arrival.promptMaxTokens = 2048;
        fc.arrival.outputMeanTokens = 48;
        fc.arrival.outputMaxTokens = 256;
        fc.arrival.seed = subSeed(seed, 2);
        fc.numRequests = kRequests;
        fc.router = RouterPolicy::PowerOfTwo;
        fc.routerSeed = subSeed(seed, 3);
        fc.slo.ttft = 0.05;
        fc.slo.tpot = 0.005;
        return fc;
    }

    static void digestFleet(Digest &d, const FleetReport &f)
    {
        for (const double v :
             {f.makespan, f.ttftP50, f.ttftP95, f.ttftP99, f.tpotP50,
              f.tpotP95, f.tpotP99, f.latencyP50, f.latencyP99,
              f.throughputTokensPerSec, f.goodputRequestsPerSec,
              f.sloAttainment}) {
            d.add(v);
        }
        for (const int v :
             {f.totalRequests, f.frontDoorShed, f.completedRequests,
              f.shedRequests, f.failedRequests, f.retriesTotal,
              f.iterationsTotal}) {
            d.add(static_cast<std::int64_t>(v));
        }
        for (std::size_t i = 0; i < f.replicas.size(); ++i) {
            d.add(static_cast<std::int64_t>(f.dispatched[i]));
            d.add(static_cast<std::int64_t>(f.replicas[i].iterations));
            d.add(f.replicas[i].makespan);
            for (const ServeTracePoint &p : f.replicas[i].trace) {
                d.add(p.time);
                d.add(static_cast<std::int64_t>(p.decodeTokens));
                d.add(static_cast<std::int64_t>(p.prefillTokens));
            }
        }
    }

    /** One replica platform (all replicas share it), for the replays. */
    System system_;
    std::vector<FleetConfig> cfgs_;
    /** Reports of the latest pass, one per fleet. */
    std::vector<FleetReport> last_;
    double lastWall_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, int jobs)
{
    if (name == "balance_sweep")
        return std::make_unique<BalanceSweep>(seed, jobs);
    if (name == "wafer_decode_1k")
        return std::make_unique<WaferDecode>(seed);
    if (name == "serve_fleet")
        return std::make_unique<ServeFleet>(seed);
    return nullptr;
}

} // namespace perfbench
