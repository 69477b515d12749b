/**
 * @file
 * perfbench: host-time benchmark of the simulator.
 *
 * Usage:
 *   perfbench --workload NAME[,NAME...|all] --seed N --seconds S
 *             --trace 0|1 [--trace-dir DIR]
 *
 * For each workload: build its state, run one cold pass (printed,
 * excluded), keep the workload's cores busy and run passes until pass
 * times settle, time several set-ups, run the once-per-invocation
 * output checks, then run timed passes back to back for S seconds —
 * round-robin across workloads when several are named (ABAB, not
 * AAABBB). Every pass must reproduce the cold pass's output digest.
 * With --trace 1 a separate replayed run records host-time layer spans
 * and writes them as a Chrome trace under DIR.
 *
 * The report lists every metric with its unit and sample count; the
 * last line of stdout is one JSON object: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "measure.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** Steps per cell (per replica for serve_fleet) of the check replay. */
constexpr int kCheckSteps = 4;
/** Timed passes every workload runs at least. */
constexpr std::size_t kMinPasses = 3;
/** Untraced step samples a workload that steps itself collects. */
constexpr std::size_t kMinStepSamples = 100;
/** Warm-up: pass times are settled when the last two are this close. */
constexpr double kSettleRatio = 1.10;
/** Warm-up: seconds every core the workload uses is kept spinning. */
constexpr double kSpinSeconds = 0.5;
/** Spans written to a host-time Chrome trace (whole steps). */
constexpr std::size_t kMaxTraceSpans = 20000;
/** trace.coverage must lie within this distance of 1. */
constexpr double kCoverageBound = 0.15;

struct Args
{
    std::vector<std::string> workloads;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceDir = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME[,NAME...|all] --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n"
                 "workloads:",
                 why.c_str());
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Parse a whole non-negative decimal integer, or die. */
unsigned long long
parseCount(const std::string &flag, const std::string &s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || s[0] == '-' || end == nullptr || *end != '\0' ||
        errno == ERANGE) {
        usage(flag + " wants a whole number below 2^64, got '" + s + "'");
    }
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            haveWorkload = true;
            a.workloads.clear();
            if (v == "all") {
                a.workloads = workloadNames();
                continue;
            }
            std::size_t start = 0;
            while (start <= v.size()) {
                const std::size_t comma = v.find(',', start);
                const std::string name = v.substr(
                    start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
                const auto &known = workloadNames();
                if (std::find(known.begin(), known.end(), name) ==
                    known.end()) {
                    usage("unknown workload '" + name + "'");
                }
                a.workloads.push_back(name);
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        } else if (flag == "--seed") {
            haveSeed = true;
            a.seed = parseCount(flag, v);
        } else if (flag == "--seconds") {
            haveSeconds = true;
            const auto s = parseCount(flag, v);
            if (s < 1 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            a.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            haveTrace = true;
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--trace-dir") {
            a.traceDir = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    return a;
}

/** Keep @p cores cores busy for @p seconds. */
void
spinCores(int cores, double seconds)
{
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < cores; ++i) {
        threads.emplace_back([&stop] {
            volatile std::uint64_t x = 0;
            while (!stop.load(std::memory_order_relaxed))
                x = x + 1;
        });
    }
    const double until = nowSeconds() + seconds;
    while (nowSeconds() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop = true;
    for (auto &t : threads)
        t.join();
}

/** One metric as reported. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** Samples behind the value (1 for a single exact reading). */
    std::size_t samples;
};

/** Everything measured for one workload in this invocation. */
struct Run
{
    std::unique_ptr<Workload> w;
    std::uint64_t reference = 0;
    double coldPass = 0.0;
    double warmupSeconds = 0.0;
    int warmupPasses = 0;
    bool settled = false;
    std::vector<SetupTimes> setups;
    std::vector<PassResult> passes;
    double serialPassSeconds = 0.0;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures;
    LayerResult traced;
    bool haveTrace = false;
    std::vector<double> untracedStepUs;
};

void
fail(Run &r, const std::string &why)
{
    ++r.failed;
    r.failures.push_back(why);
}

/** Count one pass as attempted and check it against the reference. */
void
checkPass(Run &r, const PassResult &p, const char *what)
{
    ++r.attempted;
    if (!p.failure.empty())
        fail(r, std::string(what) + ": " + p.failure);
    else if (p.digest != r.reference)
        fail(r, std::string(what) + " digest " + hex(p.digest) +
                 " != reference " + hex(r.reference));
}

/** Once-per-invocation check of a replay: invariants and fidelity. */
void
recordReplay(Run &r, const LayerResult &l, const char *what)
{
    ++r.attempted;
    std::string why;
    if (l.mismatchedSteps != 0)
        why = std::to_string(l.mismatchedSteps) +
            " replayed steps differ from InferenceEngine::step";
    else if (l.counts.badGatingSteps != 0)
        why = std::to_string(l.counts.badGatingSteps) +
            " steps with a gating row not summing to tokens x topK";
    else if (l.counts.badBytesSteps != 0)
        why = std::to_string(l.counts.badBytesSteps) +
            " steps where dispatch bytes != combine bytes";
    else if (l.counts.steps == 0)
        why = "replay ran no steps";
    if (!why.empty())
        fail(r, std::string(what) + ": " + why);
}

template <typename F>
std::vector<double>
collect(const std::vector<PassResult> &passes, F &&f)
{
    std::vector<double> out;
    out.reserve(passes.size());
    for (const PassResult &p : passes)
        out.push_back(f(p));
    return out;
}

double
busySeconds(const PassResult &p)
{
    double busy = 0.0;
    for (const double b : p.sweep.workerBusySeconds)
        busy += b;
    return busy;
}

double
selfSeconds(const LayerResult &l, const std::string &name)
{
    for (const auto &e : l.selfTimes) {
        if (e.first == name)
            return e.second;
    }
    return 0.0;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

bool
isServe(const Run &r)
{
    return std::string(r.w->name()) == "serve_fleet";
}

/** The end-to-end metrics, in BENCHMARK.json order first. */
std::vector<Metric>
endToEnd(const Run &r, double rssMb)
{
    const auto &ps = r.passes;
    const std::size_t n = ps.size();
    std::vector<Metric> m = {
        {"sim_iters_per_s",
         median(collect(ps, [](const PassResult &p) {
             return static_cast<double>(p.iterations) / p.wall;
         })),
         "1/s", n},
        {"setup_s",
         median([&] {
             std::vector<double> v;
             for (const SetupTimes &s : r.setups)
                 v.push_back(s.total);
             return v;
         }()),
         "s", r.setups.size()},
        {"peak_rss_mb", rssMb, "MB", 1},
        {"sim_layer_us", ps.front().simLayer * 1e6, "us", 1},
    };
    if (isServe(r)) {
        m.push_back({"sim_requests_per_s",
                     median(collect(ps, [](const PassResult &p) {
                         return static_cast<double>(p.requests) / p.wall;
                     })),
                     "1/s", n});
        m.push_back({"sim_goodput_rps", ps.front().goodputRps, "1/s", 1});
        m.push_back(
            {"sim_ttft_p99_ms", ps.front().ttftP99 * 1e3, "ms", 1});
    }
    m.push_back({"failed_frac",
                 static_cast<double>(r.failed) /
                     static_cast<double>(r.attempted),
                 "ratio", static_cast<std::size_t>(r.attempted)});
    return m;
}

/** The per-layer metrics of a traced run. */
std::vector<Metric>
perLayer(const Run &r)
{
    const LayerResult &l = r.traced;
    const WorkCounts &c = l.counts;
    const double steps = static_cast<double>(c.steps);
    const auto perStepUs = [&](const char *span) {
        return selfSeconds(l, span) / steps * 1e6;
    };
    const std::size_t ns = static_cast<std::size_t>(c.steps);
    const std::vector<double> &stepUs = r.untracedStepUs;
    const auto &ps = r.passes;
    const std::size_t np = ps.size();
    const auto setupMedian = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &s : r.setups)
            v.push_back(s.*field);
        return median(v);
    };
    double layerSelf = 0.0;
    for (const auto &e : l.selfTimes) {
        if (e.first != "step")
            layerSelf += e.second;
    }
    const bool serve = isServe(r);

    std::vector<Metric> m = {
        {"workload.sample_us", perStepUs("workload.sample"), "us", ns},
        {"workload.draws", static_cast<double>(c.draws) / steps,
         "count/step", ns},
        {"workload.ns_per_draw",
         selfSeconds(l, "workload.sample") * 1e9 /
             static_cast<double>(c.draws),
         "ns", ns},
        {"engine.step_us_p50", percentile(stepUs, 50.0), "us",
         stepUs.size()},
        {"engine.step_us_p90", percentile(stepUs, 90.0), "us",
         stepUs.size()},
        {"engine.route_us", perStepUs("engine.route"), "us", ns},
        {"engine.dispatch_flows",
         static_cast<double>(c.dispatchFlows) / steps, "count/step", ns},
        {"engine.moe_cost_us", perStepUs("engine.moe_cost"), "us", ns},
        {"network.a2a_us", perStepUs("network.a2a"), "us", ns},
        {"network.allreduce_us", perStepUs("network.allreduce"), "us", ns},
        {"network.hops", static_cast<double>(c.hops) / steps,
         "count/step", ns},
        {"balancer.plan_us",
         c.triggers > 0 ? selfSeconds(l, "balancer.plan") /
                 static_cast<double>(c.triggers) * 1e6
                        : 0.0,
         "us", static_cast<std::size_t>(c.triggers)},
        {"balancer.advance_us", perStepUs("balancer.advance"), "us", ns},
        {"balancer.migrations_planned",
         static_cast<double>(c.migrationsPlanned), "count", 1},
        {"balancer.migrations_completed",
         static_cast<double>(c.migrationsCompleted), "count", 1},
        {"topology.route_build_s", setupMedian(&SetupTimes::routeBuild),
         "s", r.setups.size()},
        {"mapping.build_s", setupMedian(&SetupTimes::mappingBuild), "s",
         r.setups.size()},
        {"serve.iterations",
         serve ? static_cast<double>(ps.front().iterations) : 0.0, "count",
         1},
        {"serve.shed", serve ? static_cast<double>(ps.front().shed) : 0.0,
         "count", 1},
        {"serve.retries",
         serve ? static_cast<double>(ps.front().retries) : 0.0, "count",
         1},
        {"sweep.parallel_eff",
         median(collect(ps,
                        [](const PassResult &p) {
                            return busySeconds(p) / (p.sweep.workers * p.wall);
                        })),
         "ratio", np},
        {"sweep.idle_s",
         median(collect(ps,
                        [](const PassResult &p) {
                            return p.sweep.workers * p.wall - busySeconds(p);
                        })),
         "s", np},
        {"sweep.steals", median(collect(ps,
                                        [](const PassResult &p) {
                                            return static_cast<double>(
                                                p.sweep.steals);
                                        })),
         "count", np},
        {"sweep.engine_reuses",
         median(collect(ps,
                        [](const PassResult &p) {
                            return static_cast<double>(
                                p.sweep.engineReuses);
                        })),
         "count", np},
        {"sweep.cpu_s",
         median(collect(ps, [](const PassResult &p) { return p.cpu; })),
         "s", np},
        {"trace.coverage", layerSelf / steps * 1e6 / mean(l.stepUs),
         "ratio", ns},
    };
    if (serve) {
        m.push_back({"serve.iter_us_p50", percentile(l.stepUs, 50.0), "us",
                     l.stepUs.size()});
        m.push_back({"serve.iter_us_p90", percentile(l.stepUs, 90.0), "us",
                     l.stepUs.size()});
        m.push_back({"serve.frontend_us_per_iter", l.frontendUsPerIter,
                     "us", 1});
    }
    return m;
}

/** Metric names that go into the final JSON line. */
const std::vector<std::string> &
jsonNames(bool trace)
{
    static const std::vector<std::string> e2e = {
        "sim_iters_per_s", "setup_s", "peak_rss_mb"};
    static const std::vector<std::string> layers = {
        "workload.sample_us",
        "workload.draws",
        "workload.ns_per_draw",
        "engine.step_us_p50",
        "engine.step_us_p90",
        "engine.route_us",
        "engine.dispatch_flows",
        "engine.moe_cost_us",
        "network.a2a_us",
        "network.allreduce_us",
        "network.hops",
        "balancer.plan_us",
        "balancer.advance_us",
        "balancer.migrations_planned",
        "balancer.migrations_completed",
        "topology.route_build_s",
        "mapping.build_s",
        "serve.iterations",
        "serve.shed",
        "serve.retries",
        "sweep.parallel_eff",
        "sweep.idle_s",
        "sweep.steals",
        "sweep.engine_reuses",
        "sweep.cpu_s",
        "trace.coverage",
    };
    return trace ? layers : e2e;
}

void
printTable(const std::vector<Metric> &ms)
{
    std::printf("  %-30s %16s  %-10s %8s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : ms) {
        std::printf("  %-30s %16.6g  %-10s %8zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    }
}

/** Time set-ups until at least 5 ran and a tenth of the run passed. */
void
timeSetups(Run &r, double seconds)
{
    const double start = nowSeconds();
    while (r.setups.size() < 5 ||
           (nowSeconds() - start < 0.1 * seconds && r.setups.size() < 500)) {
        r.setups.push_back(r.w->setup());
    }
}

void
warmUp(Run &r, double seconds)
{
    const double t0 = nowSeconds();
    const PassResult cold = r.w->pass();
    r.coldPass = cold.wall;
    r.reference = cold.digest;
    checkPass(r, cold, "cold pass");
    const double warm0 = nowSeconds();
    spinCores(r.w->cores(), kSpinSeconds);
    const double cap = std::max(1.5, 0.3 * seconds);
    std::vector<double> times;
    while (nowSeconds() - warm0 < cap) {
        const PassResult p = r.w->pass();
        ++r.warmupPasses;
        checkPass(r, p, "warm-up pass");
        times.push_back(p.wall);
        if (times.size() >= 2) {
            const double a = times[times.size() - 2];
            const double b = times.back();
            if (std::max(a, b) <= kSettleRatio * std::min(a, b)) {
                r.settled = true;
                break;
            }
        }
    }
    r.warmupSeconds = nowSeconds() - t0;
}

const Metric &
find(const std::vector<Metric> &ms, const std::string &name)
{
    const auto it = std::find_if(ms.begin(), ms.end(), [&](const Metric &m) {
        return m.name == name;
    });
    if (it == ms.end()) {
        std::fprintf(stderr, "perfbench: metric %s missing\n", name.c_str());
        std::exit(3);
    }
    return *it;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    // balance_sweep runs its pool on every core.
    const int jobs =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    std::vector<Run> runs;
    for (const std::string &name : args.workloads) {
        Run r;
        r.w = makeWorkload(name, args.seed, jobs);
        runs.push_back(std::move(r));
    }
    // Budget per workload for warm-up and set-up scaling.
    const double share = args.seconds / static_cast<double>(runs.size());

    for (Run &r : runs) {
        warmUp(r, share);
        timeSetups(r, share);
        double serial = 0.0;
        const std::string why = r.w->crossCheck(serial);
        if (serial > 0.0) {
            ++r.attempted;
            r.serialPassSeconds = serial;
            if (!why.empty())
                fail(r, "cross-worker check: " + why);
        }
    }

    // Timed passes, round-robin across workloads.
    const double start = nowSeconds();
    for (;;) {
        bool more = nowSeconds() - start < args.seconds;
        for (const Run &r : runs) {
            std::size_t steps = 0;
            for (const PassResult &p : r.passes)
                steps += p.stepUs.size();
            const bool stepsItself =
                r.passes.empty() || !r.passes.front().stepUs.empty();
            more = more || r.passes.size() < kMinPasses ||
                (stepsItself && steps < kMinStepSamples);
        }
        if (!more)
            break;
        for (Run &r : runs) {
            r.passes.push_back(r.w->pass());
            checkPass(r, r.passes.back(), "timed pass");
        }
    }

    // Output checks by replay. Peak RSS is read before the traced run,
    // whose in-memory spans are not the workload's.
    for (Run &r : runs)
        recordReplay(r, r.w->layers(nullptr, kCheckSteps), "check replay");
    const double rss = peakRssMb();

    for (Run &r : runs) {
        if (args.trace) {
            SpanLog spans;
            r.traced = r.w->layers(&spans, 0);
            r.traced.selfTimes = spans.selfTimes();
            r.haveTrace = true;
            recordReplay(r, r.traced, "traced replay");
            const std::string path = args.traceDir + "/host_trace_" +
                r.w->name() + ".json";
            if (spans.writeChromeTrace(path, r.w->name(), kMaxTraceSpans))
                std::printf("wrote host-time trace %s\n", path.c_str());
            else
                std::printf("could not write %s\n", path.c_str());
        }
        for (const PassResult &p : r.passes) {
            r.untracedStepUs.insert(r.untracedStepUs.end(), p.stepUs.begin(),
                                    p.stepUs.end());
        }
        if (r.untracedStepUs.empty())
            r.untracedStepUs = r.traced.stepUs;
    }

    bool correct = true;
    std::int64_t attempted = 0, failed = 0;
    std::string json;
    for (const Run &r : runs) {
        attempted += r.attempted;
        failed += r.failed;
        correct = correct && r.failed == 0;

        std::printf("\n== %s  (seed %llu, %.0f s, jobs %d, trace %d) ==\n",
                    r.w->name(), static_cast<unsigned long long>(args.seed),
                    args.seconds, r.w->cores(), args.trace ? 1 : 0);
        std::printf("warm-up: cold first pass %.4f s (excluded); warm-up "
                    "%.3f s, %d passes, %s\n",
                    r.coldPass, r.warmupSeconds, r.warmupPasses,
                    r.settled ? "settled" : "NOT settled (cap reached)");
        const double warmPass = median(collect(
            r.passes, [](const PassResult &p) { return p.wall; }));
        std::printf("timed: %zu passes, median %.4f s per pass\n",
                    r.passes.size(), warmPass);
        if (r.serialPassSeconds > 0.0) {
            std::printf("diagnostic: 1-worker pass %.4f s vs %d-worker "
                        "median %.4f s: %.2fx warm parallel speed-up\n",
                        r.serialPassSeconds, r.w->cores(), warmPass,
                        r.serialPassSeconds / warmPass);
        }
        std::printf("digest: %s (%s)\n", hex(r.reference).c_str(),
                    r.failed == 0 ? "every pass equal, checks passed"
                                  : "FAILED");
        for (const std::string &f : r.failures)
            std::printf("  check failed: %s\n", f.c_str());

        std::vector<Metric> ms = endToEnd(r, rss);
        std::printf("end-to-end (host time unless sim_; sim_ repeat "
                    "exactly per seed):\n");
        printTable(ms);
        if (r.haveTrace) {
            const std::vector<Metric> layers = perLayer(r);
            std::printf("per-layer (per engine step unless the unit says "
                        "otherwise):\n");
            printTable(layers);
            const std::vector<double> &steps = r.untracedStepUs;
            const double tail = highestReportablePercentile(steps.size());
            std::printf("engine step tail: p%g = %.2f us (%zu samples, %zu "
                        "beyond)\n",
                        tail, percentile(steps, tail), steps.size(),
                        samplesBeyond(steps.size(), tail));
            const double coverage = find(layers, "trace.coverage").value;
            std::printf("trace coverage %.3f: %s (bound |1 - coverage| <= "
                        "%.2f)\n",
                        coverage,
                        std::abs(1.0 - coverage) <= kCoverageBound
                            ? "within bound"
                            : "OUTSIDE bound",
                        kCoverageBound);
            std::printf("layer self time per step (us):");
            for (const auto &e : r.traced.selfTimes) {
                std::printf(" %s=%.2f", e.first.c_str(),
                            e.second / static_cast<double>(
                                           r.traced.counts.steps) *
                                1e6);
            }
            std::printf("\n");
            ms.insert(ms.end(), layers.begin(), layers.end());
        }

        const std::string prefix =
            runs.size() > 1 ? std::string(r.w->name()) + "/" : "";
        for (const std::string &name : jsonNames(args.trace)) {
            const Metric &m = find(ms, name);
            if (!json.empty())
                json += ", ";
            json += "\"" + prefix + name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed), json.c_str());
    return 0;
}
