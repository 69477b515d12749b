/**
 * @file
 * Large-topology smoke at a configurable device count (default 1024;
 * CI also runs 16384). One binary covers both regimes so the scale
 * path cannot silently regress:
 *
 *  - 1024 devices (4×(16×16), HER-Mapping): built through
 *    System::make under the compressed next-hop route storage and
 *    driven through a short engine sweep — serially and on the thread
 *    pool with byte-identical results (the TSan target), plus the
 *    ≥ 4× CSR-vs-next-hop compression check (skipped with --no-csr).
 *
 *  - 16384 devices (4×(64×64), HER-Mapping, fine-grained experts —
 *    one per device): the sparse-traffic scale point. Route caching is
 *    disabled (an all-pairs table would itself be gigabytes at this
 *    size), the Auto traffic policy must resolve to the sparse
 *    accumulator, a short engine run must complete with finite
 *    positive layer times, the sparse accumulator must undercut the
 *    analytic dense matrix by ≥ 10×, and peak RSS must stay under a
 *    pinned ceiling that the dense matrix would provably blow through
 *    (checked via VmHWM; skipped under sanitizers and off Linux).
 *
 * Checks exit non-zero on any failure.
 *
 * With `--trace <path>` the smoke's short engine run re-emits as a
 * sim-time Chrome trace (src/obs/trace.hh) — at 16k devices that is
 * the only tracer of the sparse-traffic engine path.
 *
 * Usage: scale_smoke [--jobs N] [--no-csr] [--devices N] [--trace P]
 *        (N must be 4 × meshN² for integer meshN ≥ 16)
 */

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/moentwine.hh"
#include "obs/obs.hh"
#include "flags.hh"
#include "jobs.hh"
#include "sweep/sweep.hh"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MOE_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MOE_UNDER_SANITIZER 1
#endif

using namespace moentwine;

namespace {

/**
 * Peak resident set (VmHWM) in bytes, or 0 when unavailable (non-Linux
 * or unreadable /proc).
 */
std::size_t
peakRssBytes()
{
#if defined(__linux__)
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    std::size_t kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb * 1024;
#else
    return 0;
#endif
}

/** Sampled walk-vs-computeRoute equivalence; returns mismatch count. */
int
checkSampledWalks(const Topology &topo)
{
    int mismatches = 0;
    const int devices = topo.numDevices();
    for (DeviceId s = 0; s < devices; s += 61) {
        for (DeviceId d = 0; d < devices; d += 67) {
            const auto fresh = topo.computeRoute(s, d);
            std::size_t i = 0;
            for (const LinkId l : topo.walk(s, d)) {
                if (i >= fresh.size() || l != fresh[i])
                    ++mismatches;
                ++i;
            }
            if (i != fresh.size())
                ++mismatches;
        }
    }
    return mismatches;
}

/**
 * Parse and validate the --devices operand: a positive integer of the
 * form 4 × meshN² with meshN ≥ 16 (the four-wafer row this smoke
 * builds). Returns meshN; fatal() on anything else — same discipline
 * as the --jobs parsing in the sweep runner.
 */
int
meshNFromDevicesArg(const char *text)
{
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (errno == ERANGE || end == text || *end != '\0' || value <= 0 ||
        value > INT_MAX) {
        fatal("--devices expects a positive integer, got '" +
              std::string(text) + "'");
    }
    const int devices = static_cast<int>(value);
    const int meshN =
        static_cast<int>(std::lround(std::sqrt(devices / 4.0)));
    if (devices % 4 != 0 || meshN * meshN * 4 != devices || meshN < 16) {
        fatal("--devices must be 4 x meshN^2 with meshN >= 16 (e.g. "
              "1024 or 16384), got " +
              std::string(text));
    }
    return meshN;
}

/**
 * The 16k-class scale point: direct mesh + HER construction with route
 * caching disabled and fine-grained experts (one per device), pinning
 * the sparse accumulator's memory win and the RSS ceiling.
 */
/** Write @p trace to @p path (no-op on an empty path). */
void
writeTraceIfRequested(const TraceSink &trace, const std::string &path)
{
    if (!path.empty() && trace.writeFile(path))
        std::printf("wrote %s\n", path.c_str());
}

int
runSparseScalePoint(int devices, int meshN, const std::string &tracePath)
{
    std::printf("== scale smoke: %d-device multi-wafer mesh, sparse "
                "traffic accumulation ==\n",
                devices);

    // No System::make here: an all-pairs route table (next-hop or CSR)
    // is itself O(devices²) — gigabytes at 16k — so this point runs on
    // routes folded from nextHop() per query. walk() fills a
    // per-topology scratch, which is fine single-threaded.
    MeshTopology mesh = MeshTopology::waferRow(4, meshN);
    mesh.disableRouteCache();
    const HierarchicalErMapping her(
        mesh, decomposeTp(4, mesh.waferRows(), mesh.waferCols()));
    std::printf("system: %s / %s, %d devices, %zu links\n",
                mesh.name().c_str(), her.name().c_str(),
                mesh.numDevices(), mesh.links().size());

    if (her.activeTrafficStorage() != TrafficStorageKind::Sparse) {
        std::fprintf(stderr,
                     "FAIL: Auto traffic policy did not select the "
                     "sparse accumulator at %d devices\n",
                     devices);
        return 1;
    }

    const int mismatches = checkSampledWalks(mesh);
    if (mismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: %d sampled walk mismatches vs XY routes\n",
                     mismatches);
        return 1;
    }
    std::printf("sampled walks: OK\n");

    // Fine-grained expert regime: expert parallelism spans the whole
    // system, one routed expert per device. This is the wafer-scale
    // serving shape the sparse accumulator exists for — dispatch
    // touches O(dp · activated · tp) pairs, a vanishing fraction of
    // devices².
    EngineConfig ec;
    ec.model = qwen3();
    ec.model.expertsTotal = devices;
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 16;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.balancer = BalancerKind::None;

    InferenceEngine engine(her, ec);
    TraceSink trace;
    if (!tracePath.empty()) {
        ObsHooks hooks;
        hooks.trace = &trace;
        engine.attachObs(hooks);
    }
    for (const auto &s : engine.run(2)) {
        const double layer = s.layerTime(ec.pipelineStages);
        std::printf("iteration: layer %.6e s\n", layer);
        if (!(layer > 0.0) || !std::isfinite(layer)) {
            std::fprintf(stderr, "FAIL: non-finite layer time\n");
            return 1;
        }
    }
    writeTraceIfRequested(trace, tracePath);

    // The memory win itself, measured on a standalone routed batch:
    // the sparse accumulator's retained footprint vs the dense matrix
    // it replaces (analytic — allocating it is exactly what this point
    // exists to avoid).
    WorkloadConfig wc = ec.workload;
    wc.numExperts = ec.model.expertsTotal;
    wc.topK = ec.model.expertsActivated;
    WorkloadGenerator gen(wc);
    const ExpertPlacement placement(ec.model.expertsTotal, devices,
                                    ec.shadowSlots);
    RoutedTraffic routed;
    routeTokens(her, placement,
                gen.sampleCounts(0, 0, ec.decodeTokensPerGroup, her.dp()),
                ec.model.tokenBytes(), ec.retainAllGather,
                ec.model.expertsActivated, routed, true);

    const double sparseBytes =
        static_cast<double>(routed.pairBytes.storageBytes());
    const double denseBytes = static_cast<double>(
        TrafficAccumulator::denseBytes(devices));
    const double ratio = denseBytes / sparseBytes;
    std::printf("traffic accumulator: %zu pairs occupied, sparse "
                "%.1f MB vs dense %.1f MB (%.1fx)\n",
                routed.pairBytes.occupancy(), sparseBytes / 1e6,
                denseBytes / 1e6, ratio);
    if (ratio < 10.0) {
        std::fprintf(stderr,
                     "FAIL: sparse accumulator only %.2fx smaller than "
                     "dense (need >= 10x)\n",
                     ratio);
        return 1;
    }

#if defined(__linux__) && !defined(MOE_UNDER_SANITIZER)
    // Pinned memory ceiling: the whole run — mapping, dispatch memo,
    // engine scratch, sparse accumulator — must fit under 2.5 GB, and
    // swapping the sparse accumulator for the dense matrix would
    // provably not (peak + the dense-minus-sparse delta exceeds the
    // ceiling). Skipped under sanitizers (shadow memory inflates RSS).
    const std::size_t peak = peakRssBytes();
    constexpr double kRssCeiling = 2.5e9;
    if (peak > 0) {
        std::printf("peak RSS: %.2f GB (ceiling %.2f GB)\n", peak / 1e9,
                    kRssCeiling / 1e9);
        if (static_cast<double>(peak) > kRssCeiling) {
            std::fprintf(stderr,
                         "FAIL: peak RSS %.2f GB over the %.2f GB "
                         "ceiling\n",
                         peak / 1e9, kRssCeiling / 1e9);
            return 1;
        }
        if (static_cast<double>(peak) + denseBytes - sparseBytes <=
            kRssCeiling) {
            std::fprintf(stderr,
                         "FAIL: dense matrix would also fit under the "
                         "ceiling — the ceiling no longer "
                         "discriminates\n");
            return 1;
        }
    }
#endif

    std::printf("scale smoke: PASS\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool skipCsr = false;
    int meshN = 16;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--no-csr") == 0) {
            skipCsr = true;
        } else if (std::strcmp(argv[i], "--devices") == 0) {
            if (i + 1 >= argc)
                fatal("--devices expects a value");
            meshN = meshNFromDevicesArg(argv[++i]);
        }
    }
    const std::string tracePath =
        benchflags::stringFlag(argc, argv, "--trace");
    const int devices = 4 * meshN * meshN;

    if (TrafficAccumulator::resolve(TrafficStorageKind::Auto, devices) ==
        TrafficStorageKind::Sparse) {
        return runSparseScalePoint(devices, meshN, tracePath);
    }

    std::printf("== scale smoke: %d-device multi-wafer mesh, "
                "next-hop route storage ==\n",
                devices);

    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = meshN;
    sc.wafers = 4;
    sc.tp = 4;
    const auto sys = std::make_shared<const System>(System::make(sc));

    const Topology &topo = sys->topology();
    std::printf("system: %s, %d devices, %zu links\n",
                sys->name().c_str(), topo.numDevices(),
                topo.links().size());
    if (topo.numDevices() < 1024) {
        std::fprintf(stderr, "FAIL: expected >= 1024 devices\n");
        return 1;
    }
    if (!topo.usingNextHopRoutes()) {
        std::fprintf(stderr,
                     "FAIL: Auto policy did not select the next-hop "
                     "storage at %d devices\n",
                     topo.numDevices());
        return 1;
    }

    const int mismatches = checkSampledWalks(topo);
    if (mismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: %d sampled walk mismatches vs XY routes\n",
                     mismatches);
        return 1;
    }
    std::printf("sampled walks: OK\n");

    // Short engine run over a two-cell balancer sweep: exercises the
    // full dispatch/combine/collective path at scale, with the shared
    // const System read concurrently by the pool workers (the TSan
    // target of this smoke).
    SweepGrid grid;
    grid.balancers = {BalancerKind::None, BalancerKind::TopologyAware};
    const SweepRunner::CellFn cell = [&sys](const SweepCell &c) {
        EngineConfig ec;
        ec.model = qwen3();
        ec.schedule = SchedulingMode::DecodeOnly;
        ec.decodeTokensPerGroup = 64;
        ec.workload.mode = GatingMode::MixedScenario;
        ec.balancer = c.point.balancerKind();
        ec.beta = 2;
        InferenceEngine engine(sys->mapping(), ec);
        double layerSum = 0.0;
        for (const auto &s : engine.run(3))
            layerSum += s.layerTime(ec.pipelineStages);
        SweepResult row;
        row.label = "balancer" + std::to_string(c.point.index);
        row.add("layer_sum_s", layerSum);
        return row;
    };

    const SweepRunner serial(1);
    const auto serialRows = serial.run(grid, cell);
    const SweepRunner pool = benchjobs::makeRunner(argc, argv);
    const auto poolRows = pool.run(grid, cell);
    for (std::size_t i = 0; i < serialRows.size(); ++i) {
        const double layer = serialRows[i].metric("layer_sum_s");
        std::printf("cell %zu: layer_sum %.6e s\n", i, layer);
        if (!(layer > 0.0) || !std::isfinite(layer)) {
            std::fprintf(stderr, "FAIL: non-finite layer time\n");
            return 1;
        }
        if (layer != poolRows[i].metric("layer_sum_s")) {
            std::fprintf(stderr,
                         "FAIL: parallel row diverged from serial\n");
            return 1;
        }
    }
    std::printf("engine smoke (jobs=%d): OK\n", pool.jobs());

    if (!tracePath.empty()) {
        // Traced re-run of one smoke cell (untimed; outside the
        // serial-vs-pool comparison above, so it cannot perturb it).
        EngineConfig ec;
        ec.model = qwen3();
        ec.schedule = SchedulingMode::DecodeOnly;
        ec.decodeTokensPerGroup = 64;
        ec.workload.mode = GatingMode::MixedScenario;
        ec.balancer = BalancerKind::TopologyAware;
        ec.beta = 2;
        InferenceEngine engine(sys->mapping(), ec);
        TraceSink trace;
        ObsHooks hooks;
        hooks.trace = &trace;
        engine.attachObs(hooks);
        engine.run(3);
        writeTraceIfRequested(trace, tracePath);
    }

    if (!skipCsr) {
        // The memory win itself: the CSR arena on an identical mesh
        // must be at least 4x the compressed matrix at this scale.
        MeshTopology csrMesh = MeshTopology::waferRow(4, meshN);
        csrMesh.setRouteStorage(RouteStorageKind::CsrArena);
        const double csrBytes =
            static_cast<double>(csrMesh.routeStorageBytes());
        const double nhBytes =
            static_cast<double>(topo.routeStorageBytes());
        const double ratio = csrBytes / nhBytes;
        std::printf("route storage: csr %.1f MB vs next-hop %.1f MB "
                    "(%.1fx)\n",
                    csrBytes / 1e6, nhBytes / 1e6, ratio);
        if (ratio < 4.0) {
            std::fprintf(stderr,
                         "FAIL: compression ratio %.2f < 4.0\n", ratio);
            return 1;
        }
    }

    std::printf("scale smoke: PASS\n");
    return 0;
}
