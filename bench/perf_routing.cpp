/**
 * @file
 * Simulator-performance benchmark of the route/traffic hot path: times
 * full engine iterations on a multi-wafer mesh and on a switch cluster,
 * with the route cache + flow aggregation enabled (the production
 * configuration) and disabled (the pre-optimisation baseline, kept
 * behind Topology::disableRouteCache() and EngineConfig::aggregateFlows).
 *
 * Emits a stable JSON trajectory to stdout and to BENCH_routing.json so
 * future PRs have a perf baseline to beat:
 *   {"bench": ..., "iters_per_sec": ..., "ns_per_route": ...,
 *    "route_storage": {"csr_bytes": ..., "next_hop_bytes": ...}}
 * and, since the compressed next-hop storage landed, a 1024-device
 * scale point comparing the two route representations (build time,
 * storage bytes, per-walk overhead), with the per-walk overhead also
 * swept over 16-1024 device meshes:
 *   "scale": {"devices": 1024, "bytes_ratio": ..., "walk_sweep":
 *    [{"devices": 16, "ns_per_walk_csr": ..., ...}, ...]}
 * and, since the sparse traffic accumulator landed (schema v4), a
 * 1024-device dense-vs-sparse engine/reduction comparison plus a
 * 16384-device fine-grained-expert point where only the sparse
 * accumulator is feasible:
 *   "traffic": {"dense_iters_per_sec": ..., "sparse_iters_per_sec":
 *    ..., "dense_reduction_s": ..., "sparse_reduction_s": ...,
 *    "sparse_accum_bytes": ...}
 *   "traffic_scale": {"devices": 16384, "occupied_pairs": ...,
 *    "bytes_ratio": ..., ...}
 *
 * Since the observability layer (schema v5), each timed engine section
 * also reports hardware counters (cycles, instructions, IPC, cache and
 * dTLB misses) from perf_event_open — zeros with "available": false
 * where the PMU is unreachable (containers, locked-down CI) — and the
 * driver accepts:
 *   --trace <path>  sim-time trace of a short observed engine run
 *   --stats <path>  StatRegistry JSON of the same run
 *
 * The SweepRunner pool is not timed here (schema v7): perfbench's
 * balance_sweep workload times the Fig. 16 grid on it, warmed and
 * repeated.
 *
 * Usage: perf_routing [iterations] [--trace P] [--stats P]
 *        (default 300 cached / 60 baseline)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/moentwine.hh"
#include "obs/obs.hh"
#include "flags.hh"

using namespace moentwine;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Iterations/second of a fresh engine on the given platform. When
 * @p hw is non-null the timed region also runs under the hardware
 * counter group (zeros when the PMU is unavailable).
 */
double
engineThroughput(const Mapping &mapping, const EngineConfig &cfg,
                 int iterations, HwCounterValues *hw = nullptr)
{
    InferenceEngine engine(mapping, cfg);
    // Warm up: builds the route table, dispatch-source memo, and
    // steady-state scratch capacities outside the timed region.
    engine.step();
    engine.step();
    HwCounters counters;
    if (hw != nullptr)
        counters.start();
    const auto start = Clock::now();
    double checksum = 0.0;
    for (int i = 0; i < iterations; ++i)
        checksum += engine.step().layerTime(cfg.pipelineStages);
    const double elapsed = secondsSince(start);
    if (hw != nullptr)
        *hw = counters.stop();
    if (checksum < 0.0)
        std::printf("impossible\n"); // keep the loop observable
    return static_cast<double>(iterations) / elapsed;
}

/** Average wall-clock nanoseconds of one route(src, dst) lookup. */
double
nsPerRouteLookup(const Topology &topo, int samples)
{
    const int devices = topo.numDevices();
    long hopsSum = 0;
    DeviceId a = 0;
    const auto start = Clock::now();
    for (int i = 0; i < samples; ++i) {
        const DeviceId b = (a * 31 + 17) % devices;
        hopsSum += static_cast<long>(topo.route(a, b).size());
        a = (a + 1) % devices;
    }
    const double elapsed = secondsSince(start);
    if (hopsSum < 0)
        std::printf("impossible\n");
    return elapsed * 1e9 / static_cast<double>(samples);
}

struct BenchResult
{
    std::string bench;
    double itersPerSec = 0.0;
    double nsPerRoute = 0.0;
    double baselineItersPerSec = 0.0;
    double baselineNsPerRoute = 0.0;
    std::size_t csrBytes = 0;
    std::size_t nextHopBytes = 0;
    /** Hardware counters of the cached (production) timed region. */
    HwCounterValues hw{};

    double speedup() const
    {
        return baselineItersPerSec > 0.0
            ? itersPerSec / baselineItersPerSec
            : 0.0;
    }

    double bytesRatio() const
    {
        return nextHopBytes > 0
            ? static_cast<double>(csrBytes) /
                static_cast<double>(nextHopBytes)
            : 0.0;
    }
};

/**
 * Peak route-storage footprint of both representations on @p topo:
 * builds each in turn and reads its heap bytes, then restores the
 * Auto policy (the topology rebuilds lazily on next use).
 */
void
measureRouteStorage(Topology &topo, std::size_t &csrBytes,
                    std::size_t &nextHopBytes)
{
    topo.setRouteStorage(RouteStorageKind::CsrArena);
    csrBytes = topo.routeStorageBytes();
    topo.setRouteStorage(RouteStorageKind::NextHop);
    nextHopBytes = topo.routeStorageBytes();
    topo.setRouteStorage(RouteStorageKind::Auto);
}

/**
 * Run one platform in both modes. The topology is taken non-const so
 * the no-cache test hook can be toggled around the baseline run.
 */
BenchResult
runPlatform(const std::string &label, Topology &topo,
            const Mapping &mapping, EngineConfig cfg, int iters)
{
    BenchResult r;
    r.bench = label;

    // Cached + aggregated (production) configuration, with the
    // hardware-counter group around the timed region.
    topo.enableRouteCache();
    cfg.aggregateFlows = true;
    r.itersPerSec = engineThroughput(mapping, cfg, iters, &r.hw);
    r.nsPerRoute = nsPerRouteLookup(topo, 200000);

    // Route-storage footprint under both representations.
    measureRouteStorage(topo, r.csrBytes, r.nextHopBytes);

    // Baseline: per-query route derivation, per-triple flow lists.
    topo.disableRouteCache();
    cfg.aggregateFlows = false;
    const int baseIters = std::max(10, iters / 5);
    r.baselineItersPerSec = engineThroughput(mapping, cfg, baseIters);
    r.baselineNsPerRoute = nsPerRouteLookup(topo, 20000);
    topo.enableRouteCache();

    std::printf("%-24s cached %8.1f it/s | baseline %8.1f it/s | "
                "speedup %5.2fx | route %6.1f ns vs %8.1f ns | "
                "storage csr %zu B vs nexthop %zu B (%.1fx)\n",
                r.bench.c_str(), r.itersPerSec, r.baselineItersPerSec,
                r.speedup(), r.nsPerRoute, r.baselineNsPerRoute,
                r.csrBytes, r.nextHopBytes, r.bytesRatio());
    return r;
}

/**
 * The kilodevice scale point the compressed storage exists for: a
 * 4x(16x16) multi-wafer mesh (1024 devices). Records build time,
 * storage bytes, and per-walk overhead of each representation; the
 * CSR arena at this size is ~6x the next-hop matrix and grows with
 * average hop count, which is what capped earlier systems.
 */
struct ScaleResult
{
    std::string bench;
    int devices = 0;
    std::size_t csrBytes = 0;
    std::size_t nextHopBytes = 0;
    double csrBuildSeconds = 0.0;
    double nextHopBuildSeconds = 0.0;
    double nsPerWalkCsr = 0.0;
    double nsPerWalkNextHop = 0.0;

    /** ns per walk of both storages on one mesh size. */
    struct WalkPoint
    {
        int devices = 0;
        double nsCsr = 0.0;
        double nsNextHop = 0.0;
    };
    /** The walk comparison from 16 devices up to the scale point. */
    std::vector<WalkPoint> walkSweep;

    double bytesRatio() const
    {
        return nextHopBytes > 0
            ? static_cast<double>(csrBytes) /
                static_cast<double>(nextHopBytes)
            : 0.0;
    }
};

/** Average wall-clock nanoseconds of one full walk() link iteration. */
double
nsPerWalk(const Topology &topo, int samples)
{
    const int devices = topo.numDevices();
    long hopsSum = 0;
    DeviceId a = 0;
    const auto start = Clock::now();
    for (int i = 0; i < samples; ++i) {
        const DeviceId b = (a * 31 + 17) % devices;
        for (const LinkId l : topo.walk(a, b))
            hopsSum += l >= 0 ? 1 : 0;
        a = (a + 1) % devices;
    }
    const double elapsed = secondsSince(start);
    if (hopsSum < 0)
        std::printf("impossible\n");
    return elapsed * 1e9 / static_cast<double>(samples);
}

ScaleResult
runScaleBench()
{
    ScaleResult r;
    r.bench = "wsc_4x(16x16)_1024dev";

    MeshTopology mesh = MeshTopology::waferRow(4, 16);
    r.devices = mesh.numDevices();

    // Compressed next-hop matrix (what Auto selects at this size).
    mesh.setRouteStorage(RouteStorageKind::NextHop);
    auto start = Clock::now();
    mesh.finalizeRoutes();
    r.nextHopBuildSeconds = secondsSince(start);
    r.nextHopBytes = mesh.routeStorageBytes();
    r.nsPerWalkNextHop = nsPerWalk(mesh, 200000);

    // CSR arena on the same topology for the memory-curve comparison.
    mesh.setRouteStorage(RouteStorageKind::CsrArena);
    start = Clock::now();
    mesh.finalizeRoutes();
    r.csrBuildSeconds = secondsSince(start);
    r.csrBytes = mesh.routeStorageBytes();
    r.nsPerWalkCsr = nsPerWalk(mesh, 200000);

    std::printf("%-24s %d devices | storage csr %.1f MB vs nexthop "
                "%.1f MB (%.1fx) | walk %5.1f ns vs %5.1f ns | "
                "build %.2f s vs %.2f s\n",
                r.bench.c_str(), r.devices, r.csrBytes / 1e6,
                r.nextHopBytes / 1e6, r.bytesRatio(), r.nsPerWalkCsr,
                r.nsPerWalkNextHop, r.csrBuildSeconds,
                r.nextHopBuildSeconds);

    // The same walk comparison at smaller meshes (the sizes of the
    // storage-policy table), ending with the scale point above.
    for (const auto &shape : {std::pair<int, int>{1, 4}, {1, 8}, {2, 8},
                              {2, 16}}) {
        MeshTopology m = MeshTopology::waferRow(shape.first, shape.second);
        ScaleResult::WalkPoint p;
        p.devices = m.numDevices();
        // Build each storage before timing, as the scale point does.
        m.setRouteStorage(RouteStorageKind::NextHop);
        m.finalizeRoutes();
        p.nsNextHop = nsPerWalk(m, 200000);
        m.setRouteStorage(RouteStorageKind::CsrArena);
        m.finalizeRoutes();
        p.nsCsr = nsPerWalk(m, 200000);
        r.walkSweep.push_back(p);
    }
    r.walkSweep.push_back(
        ScaleResult::WalkPoint{r.devices, r.nsPerWalkCsr,
                               r.nsPerWalkNextHop});
    for (const auto &p : r.walkSweep)
        std::printf("  walk %5d devices | csr %6.1f ns | next-hop %6.1f "
                    "ns\n",
                    p.devices, p.nsCsr, p.nsNextHop);
    return r;
}

/**
 * Dense-vs-sparse traffic accumulation at 1024 devices: full engine
 * throughput and the isolated routeTokens→allToAll reduction under
 * each forced storage, plus the accumulator footprints. The two
 * storages are bitwise equivalent (pinned by
 * tests/traffic_accum_test.cpp), so any gap here is pure overhead.
 */
struct TrafficResult
{
    std::string bench;
    int devices = 0;
    double denseItersPerSec = 0.0;
    double sparseItersPerSec = 0.0;
    double denseReductionSeconds = 0.0;
    double sparseReductionSeconds = 0.0;
    std::size_t denseBytes = 0;
    std::size_t sparseBytes = 0;

    double sparseVsDense() const
    {
        return denseItersPerSec > 0.0
            ? sparseItersPerSec / denseItersPerSec
            : 0.0;
    }
};

/**
 * Average seconds of one aggregated routeTokens + dispatch/combine
 * link-load reduction pass (the tiled matrix→addFlow path this PR
 * blocks for cache locality).
 */
double
reductionSeconds(const Mapping &mapping, const ExpertPlacement &placement,
                 const std::vector<std::vector<int>> &counts,
                 const EngineConfig &cfg, int passes)
{
    RoutedTraffic routed;
    PhaseTraffic disp(mapping.topology());
    PhaseTraffic comb(mapping.topology());
    // Warm pass: reaches steady-state scratch capacity.
    routeTokens(mapping, placement, counts, cfg.model.tokenBytes(),
                cfg.retainAllGather, cfg.model.expertsActivated, routed,
                true);
    double checksum = 0.0;
    const auto start = Clock::now();
    for (int i = 0; i < passes; ++i) {
        routeTokens(mapping, placement, counts, cfg.model.tokenBytes(),
                    cfg.retainAllGather, cfg.model.expertsActivated,
                    routed, true);
        checksum += allToAllInto(routed.dispatch, disp);
        checksum += allToAllInto(routed.combine, comb);
    }
    const double elapsed = secondsSince(start);
    if (checksum < 0.0)
        std::printf("impossible\n");
    return elapsed / static_cast<double>(passes);
}

TrafficResult
runTrafficBench(const EngineConfig &baseCfg, int iters)
{
    TrafficResult r;
    r.bench = "wsc_4x(16x16)_her_1024dev";

    MeshTopology mesh = MeshTopology::waferRow(4, 16);
    HierarchicalErMapping her(
        mesh, decomposeTp(4, mesh.waferRows(), mesh.waferCols()));
    r.devices = mesh.numDevices();

    EngineConfig cfg = baseCfg;
    // Fine-grained expert regime (one expert per device, single
    // replica, decode-sized token groups, no balancer fan-out) — the
    // regime the sparse storage exists for, and the same one the
    // 16384-device section measures, so the two traffic sections
    // compare like with like across scale. Balancer interaction is
    // pinned separately by the bitwise engine-equivalence tests.
    cfg.balancer = BalancerKind::None;
    cfg.model.expertsTotal = r.devices;
    cfg.decodeTokensPerGroup = 16;

    WorkloadConfig wc = cfg.workload;
    wc.numExperts = cfg.model.expertsTotal;
    wc.topK = cfg.model.expertsActivated;
    WorkloadGenerator gen(wc);
    const ExpertPlacement placement(cfg.model.expertsTotal, r.devices,
                                    cfg.shadowSlots);
    const auto counts =
        gen.sampleCounts(0, 0, cfg.decodeTokensPerGroup, her.dp());

    const int engineIters = std::max(10, iters / 5);
    const int passes = std::max(5, iters / 10);

    her.setTrafficStorage(TrafficStorageKind::Dense);
    r.denseItersPerSec = engineThroughput(her, cfg, engineIters);
    r.denseReductionSeconds =
        reductionSeconds(her, placement, counts, cfg, passes);
    {
        RoutedTraffic routed;
        routeTokens(her, placement, counts, cfg.model.tokenBytes(),
                    cfg.retainAllGather, cfg.model.expertsActivated,
                    routed, true);
        r.denseBytes = routed.pairBytes.storageBytes();
    }

    her.setTrafficStorage(TrafficStorageKind::Sparse);
    r.sparseItersPerSec = engineThroughput(her, cfg, engineIters);
    r.sparseReductionSeconds =
        reductionSeconds(her, placement, counts, cfg, passes);
    {
        RoutedTraffic routed;
        routeTokens(her, placement, counts, cfg.model.tokenBytes(),
                    cfg.retainAllGather, cfg.model.expertsActivated,
                    routed, true);
        r.sparseBytes = routed.pairBytes.storageBytes();
    }

    std::printf("%-24s dense %8.1f it/s vs sparse %8.1f it/s "
                "(%.3fx) | reduction %.3f ms vs %.3f ms | accum "
                "%.1f MB vs %.1f MB\n",
                r.bench.c_str(), r.denseItersPerSec, r.sparseItersPerSec,
                r.sparseVsDense(), r.denseReductionSeconds * 1e3,
                r.sparseReductionSeconds * 1e3, r.denseBytes / 1e6,
                r.sparseBytes / 1e6);
    return r;
}

/**
 * The 16384-device point only the sparse accumulator makes feasible:
 * fine-grained experts (one per device) on a 4×(64×64) mesh with
 * on-the-fly routes. The dense matrix is analytic — allocating 2.1 GB
 * is what the sparse path exists to avoid.
 */
struct TrafficScaleResult
{
    std::string bench;
    int devices = 0;
    std::size_t occupiedPairs = 0;
    std::size_t sparseBytes = 0;
    std::size_t denseBytes = 0;
    double sparseReductionSeconds = 0.0;

    double bytesRatio() const
    {
        return sparseBytes > 0
            ? static_cast<double>(denseBytes) /
                static_cast<double>(sparseBytes)
            : 0.0;
    }
};

TrafficScaleResult
runTrafficScaleBench()
{
    TrafficScaleResult r;
    r.bench = "wsc_4x(64x64)_her_16384dev";

    MeshTopology mesh = MeshTopology::waferRow(4, 64);
    mesh.disableRouteCache();
    const HierarchicalErMapping her(
        mesh, decomposeTp(4, mesh.waferRows(), mesh.waferCols()));
    r.devices = mesh.numDevices();
    r.denseBytes = TrafficAccumulator::denseBytes(r.devices);

    EngineConfig cfg;
    cfg.model = qwen3();
    cfg.model.expertsTotal = r.devices;
    cfg.decodeTokensPerGroup = 16;
    cfg.workload.mode = GatingMode::MixedScenario;

    WorkloadConfig wc = cfg.workload;
    wc.numExperts = cfg.model.expertsTotal;
    wc.topK = cfg.model.expertsActivated;
    WorkloadGenerator gen(wc);
    const ExpertPlacement placement(cfg.model.expertsTotal, r.devices,
                                    cfg.shadowSlots);
    const auto counts =
        gen.sampleCounts(0, 0, cfg.decodeTokensPerGroup, her.dp());

    r.sparseReductionSeconds =
        reductionSeconds(her, placement, counts, cfg, 2);
    RoutedTraffic routed;
    routeTokens(her, placement, counts, cfg.model.tokenBytes(),
                cfg.retainAllGather, cfg.model.expertsActivated, routed,
                true);
    r.occupiedPairs = routed.pairBytes.occupancy();
    r.sparseBytes = routed.pairBytes.storageBytes();

    std::printf("%-24s %d devices | %zu pairs | sparse %.1f MB vs "
                "dense %.1f MB (%.1fx) | reduction %.3f s\n",
                r.bench.c_str(), r.devices, r.occupiedPairs,
                r.sparseBytes / 1e6, r.denseBytes / 1e6, r.bytesRatio(),
                r.sparseReductionSeconds);
    return r;
}

std::string
toJson(const std::vector<BenchResult> &results, const ScaleResult &scale,
       const TrafficResult &traffic,
       const TrafficScaleResult &trafficScale)
{
    std::string out = "{\n  \"schema\": \"moentwine.bench.routing.v7\",\n"
                      "  \"results\": [\n";
    char buf[1024];
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"bench\": \"%s\", \"iters_per_sec\": %.1f, "
            "\"ns_per_route\": %.1f, \"baseline_iters_per_sec\": %.1f, "
            "\"baseline_ns_per_route\": %.1f, \"speedup\": %.2f, "
            "\"route_storage\": {\"csr_bytes\": %zu, "
            "\"next_hop_bytes\": %zu, \"bytes_ratio\": %.2f}, "
            "\"hw\": {\"available\": %s, \"cycles\": %llu, "
            "\"instructions\": %llu, \"ipc\": %.2f, "
            "\"cache_misses\": %llu, \"dtlb_misses\": %llu}}%s\n",
            r.bench.c_str(), r.itersPerSec, r.nsPerRoute,
            r.baselineItersPerSec, r.baselineNsPerRoute, r.speedup(),
            r.csrBytes, r.nextHopBytes, r.bytesRatio(),
            r.hw.available ? "true" : "false",
            static_cast<unsigned long long>(r.hw.cycles),
            static_cast<unsigned long long>(r.hw.instructions),
            r.hw.ipc(),
            static_cast<unsigned long long>(r.hw.cacheMisses),
            static_cast<unsigned long long>(r.hw.dtlbMisses),
            i + 1 < results.size() ? "," : "");
        out += buf;
    }
    out += "  ],\n";
    std::snprintf(
        buf, sizeof(buf),
        "  \"scale\": {\"bench\": \"%s\", \"devices\": %d, "
        "\"csr_bytes\": %zu, \"next_hop_bytes\": %zu, "
        "\"bytes_ratio\": %.2f, \"csr_build_s\": %.3f, "
        "\"next_hop_build_s\": %.3f, \"ns_per_walk_csr\": %.1f, "
        "\"ns_per_walk_next_hop\": %.1f, \"walk_sweep\": [",
        scale.bench.c_str(), scale.devices, scale.csrBytes,
        scale.nextHopBytes, scale.bytesRatio(), scale.csrBuildSeconds,
        scale.nextHopBuildSeconds, scale.nsPerWalkCsr,
        scale.nsPerWalkNextHop);
    out += buf;
    for (std::size_t i = 0; i < scale.walkSweep.size(); ++i) {
        const auto &p = scale.walkSweep[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"devices\": %d, \"ns_per_walk_csr\": %.1f, "
                      "\"ns_per_walk_next_hop\": %.1f}",
                      i > 0 ? ", " : "", p.devices, p.nsCsr, p.nsNextHop);
        out += buf;
    }
    out += "]},\n";
    std::snprintf(
        buf, sizeof(buf),
        "  \"traffic\": {\"bench\": \"%s\", \"devices\": %d, "
        "\"dense_iters_per_sec\": %.1f, \"sparse_iters_per_sec\": %.1f, "
        "\"sparse_vs_dense\": %.3f, \"dense_reduction_s\": %.6f, "
        "\"sparse_reduction_s\": %.6f, \"dense_accum_bytes\": %zu, "
        "\"sparse_accum_bytes\": %zu},\n",
        traffic.bench.c_str(), traffic.devices, traffic.denseItersPerSec,
        traffic.sparseItersPerSec, traffic.sparseVsDense(),
        traffic.denseReductionSeconds, traffic.sparseReductionSeconds,
        traffic.denseBytes, traffic.sparseBytes);
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"traffic_scale\": {\"bench\": \"%s\", \"devices\": %d, "
        "\"occupied_pairs\": %zu, \"sparse_accum_bytes\": %zu, "
        "\"dense_accum_bytes\": %zu, \"bytes_ratio\": %.2f, "
        "\"sparse_reduction_s\": %.3f}\n",
        trafficScale.bench.c_str(), trafficScale.devices,
        trafficScale.occupiedPairs, trafficScale.sparseBytes,
        trafficScale.denseBytes, trafficScale.bytesRatio(),
        trafficScale.sparseReductionSeconds);
    out += buf;
    out += "}\n";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    int iters = 300;
    const auto positionals = benchflags::positionals(argc, argv);
    if (positionals.size() > 1)
        fatal("perf_routing takes at most one positional (iterations)");
    if (!positionals.empty()) {
        iters = benchflags::positiveInt(positionals.front(),
                                        "perf_routing iteration count");
    }
    const std::string tracePath =
        benchflags::stringFlag(argc, argv, "--trace");
    const std::string statsPath =
        benchflags::stringFlag(argc, argv, "--stats");

    // Fig. 16-style serving workload: decode iterations over a drifting
    // scenario mixture, which keeps gating (and therefore the flow set)
    // changing every iteration.
    EngineConfig cfg;
    cfg.model = qwen3();
    cfg.schedule = SchedulingMode::DecodeOnly;
    cfg.decodeTokensPerGroup = 128;
    cfg.workload.mode = GatingMode::MixedScenario;
    cfg.workload.mixPeriod = 60;
    cfg.balancer = BalancerKind::TopologyAware;
    cfg.alpha = 0.5;
    cfg.beta = 5;

    std::vector<BenchResult> results;

    {
        // Multi-wafer mesh (fig13d-style): two 8x8 wafers, HER-Mapping.
        MeshTopology mesh = MeshTopology::waferRow(2, 8);
        const HierarchicalErMapping her(mesh, ParallelismConfig{2, 4});
        results.push_back(
            runPlatform("wsc_2x(8x8)_her", mesh, her, cfg, iters));
    }
    {
        // Switch cluster (fig16 GPU baseline): 4-node DGX, TP=4.
        SwitchClusterTopology dgx = SwitchClusterTopology::dgx(4);
        const ClusterMapping cm(dgx, 4);
        results.push_back(
            runPlatform("dgx_4node_tp4", dgx, cm, cfg, iters));
    }

    // Kilodevice scale point: the compressed next-hop storage vs the
    // CSR arena on a 1024-device multi-wafer mesh.
    const ScaleResult scale = runScaleBench();

    // Traffic-accumulator trajectory: dense vs sparse at 1024 devices
    // (throughput parity) and the sparse-only 16384-device point
    // (memory win).
    const TrafficResult traffic = runTrafficBench(cfg, iters);
    const TrafficScaleResult trafficScale = runTrafficScaleBench();

    if (!tracePath.empty() || !statsPath.empty()) {
        // Short observed engine run on the multi-wafer mesh, outside
        // every timed region so observation cost never lands in the
        // reported numbers.
        MeshTopology mesh = MeshTopology::waferRow(2, 8);
        const HierarchicalErMapping her(mesh, ParallelismConfig{2, 4});
        InferenceEngine engine(her, cfg);
        StatRegistry stats;
        TraceSink trace;
        ObsHooks hooks;
        hooks.stats = &stats;
        if (!tracePath.empty())
            hooks.trace = &trace;
        engine.attachObs(hooks);
        engine.run(50);
        if (!tracePath.empty() && trace.writeFile(tracePath))
            std::printf("wrote %s\n", tracePath.c_str());
        if (!statsPath.empty()) {
            if (std::FILE *f = std::fopen(statsPath.c_str(), "w")) {
                const std::string statsJson = stats.toJson();
                std::fwrite(statsJson.data(), 1, statsJson.size(), f);
                std::fclose(f);
                std::printf("wrote %s\n", statsPath.c_str());
            } else {
                warn("could not write " + statsPath);
            }
        }
    }

    const std::string json =
        toJson(results, scale, traffic, trafficScale);
    std::printf("\n%s", json.c_str());

    if (std::FILE *f = std::fopen("BENCH_routing.json", "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::printf("wrote BENCH_routing.json\n");
    } else {
        std::fprintf(stderr, "could not write BENCH_routing.json\n");
        return 1;
    }
    return 0;
}
