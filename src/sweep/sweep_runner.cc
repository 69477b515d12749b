#include "sweep/sweep_runner.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/logging.hh"
#include "sweep/work_deque.hh"

namespace moentwine {

namespace {

/**
 * Strict base-10 parse of a positive int: the whole string must be
 * consumed (no "4abc"), and the value must fit. Returns -1 on any
 * violation so callers reject loudly instead of running a sweep with
 * an atoi-truncated job count.
 */
int
parsePositiveInt(const char *text)
{
    if (text == nullptr || *text == '\0')
        return -1;
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (errno == ERANGE || end == text || *end != '\0')
        return -1;
    if (value <= 0 ||
        value > static_cast<long>(std::numeric_limits<int>::max()))
        return -1;
    return static_cast<int>(value);
}

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

SweepRunner::SweepRunner(int jobs)
    : jobs_(resolveJobs(jobs))
{
}

SweepRunner::SweepRunner(const SweepOptions &opts)
    : jobs_(resolveJobs(opts.jobs))
{
}

int
SweepRunner::resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("MOENTWINE_JOBS")) {
        const int fromEnv = parsePositiveInt(env);
        if (fromEnv <= 0)
            fatal("MOENTWINE_JOBS expects a positive integer (got '" +
                  std::string(env) + "')");
        return fromEnv;
    }
#if defined(__linux__)
    // hardware_concurrency() counts online CPUs, not the ones this
    // thread may run on: under `taskset -c 0` or a container cpuset
    // it would oversubscribe the allowed cores.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
SweepRunner::jobsFromArgs(int argc, char **argv)
{
    int jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strcmp(arg, "--jobs") == 0) {
            if (i + 1 >= argc)
                fatal("--jobs requires a value");
            value = argv[++i];
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            value = arg + 7;
        } else {
            continue;
        }
        // Every occurrence is validated; the last one wins, so
        // `bench --jobs 8 --jobs 1` runs serial while
        // `bench --jobs 8 --jobs bogus` still dies loudly.
        const int parsed = parsePositiveInt(value);
        if (parsed <= 0)
            fatal("--jobs expects a positive integer (got '" +
                  std::string(value) + "')");
        jobs = parsed;
    }
    return jobs;
}

std::vector<SweepResult>
SweepRunner::run(const SweepGrid &grid, const CellFn &fn,
                 SweepRunStats *stats) const
{
    const std::size_t cells = grid.cells();
    std::vector<SweepResult> rows(cells);
    if (stats)
        *stats = SweepRunStats{};
    if (cells == 0)
        return rows;

    const std::size_t workers = std::min<std::size_t>(
        static_cast<std::size_t>(jobs_), cells);

    // One System per (system, TP) axis pair, shared by every cell
    // with those coordinates. Slots build under a call_once —
    // normally satisfied by a stealable prebuild item before any cell
    // needs it, with the once-guard as backstop for cells that outrun
    // their prebuild (and as the only mechanism on the serial path).
    // The config always comes from SweepPoint::systemConfig(), the
    // single source of truth for the TP-override rule.
    struct SystemSlot
    {
        std::once_flag once;
        std::shared_ptr<const System> system;
    };
    const std::size_t nTp =
        grid.tpDegrees.empty() ? 1 : grid.tpDegrees.size();
    const std::size_t nSlots = grid.systems.size() * nTp;
    std::vector<SystemSlot> slots(nSlots);
    const auto systemFor =
        [&](const SweepPoint &p) -> std::shared_ptr<const System> {
        if (p.system < 0)
            return nullptr;
        const std::size_t t =
            p.tp < 0 ? 0 : static_cast<std::size_t>(p.tp);
        SystemSlot &slot =
            slots[static_cast<std::size_t>(p.system) * nTp + t];
        std::call_once(slot.once, [&] {
            slot.system =
                std::make_shared<System>(System::make(p.systemConfig()));
        });
        return slot.system;
    };

    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;
    const auto recordError = [&] {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError)
            firstError = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
    };

    // Rows are written at their grid index, making the output order
    // independent of completion order and stealing.
    const auto runCell = [&](std::size_t i, WorkerContext &ctx) {
        const SweepPoint point = grid.pointAt(i);
        SweepCell cell{point, systemFor(point), &ctx};
        rows[i] = fn(cell);
        rows[i].index = i;
    };

    std::vector<std::unique_ptr<WorkerContext>> contexts;
    contexts.reserve(std::max<std::size_t>(workers, 1));
    for (std::size_t w = 0; w < std::max<std::size_t>(workers, 1); ++w)
        contexts.push_back(
            std::make_unique<WorkerContext>(static_cast<int>(w)));

    // Per-worker scheduler tallies; each worker writes only its own
    // slot, the main thread reads after join.
    std::vector<std::int64_t> cellCount(contexts.size(), 0);
    std::vector<std::int64_t> prebuildCount(contexts.size(), 0);
    std::vector<std::int64_t> stealCount(contexts.size(), 0);
    std::vector<double> busySeconds(contexts.size(), 0.0);

    const auto fillStats = [&] {
        if (!stats)
            return;
        stats->workers = static_cast<int>(contexts.size());
        stats->workerItems.assign(contexts.size(), 0);
        stats->workerBusySeconds = busySeconds;
        for (std::size_t w = 0; w < contexts.size(); ++w) {
            stats->cells += cellCount[w];
            stats->prebuilds += prebuildCount[w];
            stats->steals += stealCount[w];
            stats->workerItems[w] = cellCount[w] + prebuildCount[w];
            stats->engineBuilds += contexts[w]->engineBuilds();
            stats->engineReuses += contexts[w]->engineReuses();
        }
    };

    if (workers <= 1) {
        // Serial reference path: inline on the calling thread in grid
        // order.
        WorkerContext &ctx = *contexts[0];
        const auto t0 = std::chrono::steady_clock::now();
        try {
            for (std::size_t i = 0; i < cells; ++i) {
                runCell(i, ctx);
                ++cellCount[0];
            }
        } catch (...) {
            recordError();
        }
        busySeconds[0] = secondsSince(t0);
        fillStats();
        if (firstError)
            std::rethrow_exception(firstError);
        return rows;
    }

    // Preload the deques. Worker w owns the contiguous cell block
    // [w*cells/W, (w+1)*cells/W); the system axis is outermost in the
    // grid's row-major order, so blocks keep same-platform cells
    // together and the worker's engine pool hits. Cells are pushed in
    // reverse so the owner (LIFO bottom) walks its block in ascending
    // grid order while thieves (FIFO top) eat the block's tail.
    // Prebuild items — one per (system, TP) slot, dealt round-robin —
    // are pushed last so every owner finalizes its platforms before
    // touching cells; an idle worker can steal a prebuild just like a
    // cell, which is what keeps same-platform warm-up from
    // serializing on the first worker to need it.
    std::vector<SweepWorkDeque> deques(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t begin = w * cells / workers;
        const std::size_t end = (w + 1) * cells / workers;
        for (std::size_t i = end; i > begin; --i)
            deques[w].push(SweepWorkItem{SweepWorkItem::Kind::Cell, i - 1});
    }
    for (std::size_t k = nSlots; k > 0; --k) {
        const std::size_t slot = k - 1;
        const std::size_t sys = slot / nTp;
        const std::size_t tp = slot % nTp;
        // Representative cell of the slot: index 0 on every other
        // axis (at() accepts 0 for unswept axes too).
        const std::size_t rep =
            grid.at(0, static_cast<int>(sys), static_cast<int>(tp), 0, 0,
                    0, 0, 0, 0, 0, 0);
        deques[slot % workers].push(
            SweepWorkItem{SweepWorkItem::Kind::Prebuild, rep});
    }

    const auto workerLoop = [&](std::size_t w) {
        WorkerContext &ctx = *contexts[w];
        SweepWorkItem item;
        bool ownLive = true;
        for (;;) {
            if (failed.load(std::memory_order_relaxed))
                break;
            bool got = false;
            bool stolen = false;
            if (ownLive) {
                got = deques[w].takeBottom(item);
                if (!got)
                    ownLive = false; // drained for good: no pushes
            }
            if (!got) {
                // Deterministic victim order w+1, w+2, ... A full
                // empty sweep means done: items only disappear, and a
                // lost steal race means someone else claimed that
                // item and will execute it.
                for (std::size_t v = 1; v < workers && !got; ++v) {
                    if (deques[(w + v) % workers].stealTop(item)) {
                        got = true;
                        stolen = true;
                    }
                }
            }
            if (!got)
                break;
            const auto t0 = std::chrono::steady_clock::now();
            try {
                if (item.kind == SweepWorkItem::Kind::Prebuild) {
                    systemFor(grid.pointAt(item.index));
                    ++prebuildCount[w];
                } else {
                    runCell(item.index, ctx);
                    ++cellCount[w];
                }
                if (stolen)
                    ++stealCount[w];
            } catch (...) {
                recordError();
                break;
            }
            busySeconds[w] += secondsSince(t0);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(workerLoop, w);
    for (std::thread &t : pool)
        t.join();
    fillStats();
    if (firstError)
        std::rethrow_exception(firstError);
    return rows;
}

} // namespace moentwine
