/**
 * @file
 * Measurement helpers of the host-time benchmark: the percentile and
 * sample-count rule, the output digest, the invariant checks it runs on
 * simulator outputs from outside, host-time spans with self-time
 * accounting, and process resource readings.
 *
 * Everything here observes the simulator through its public API; none
 * of it feeds back into a simulated result.
 */

#ifndef MOENTWINE_PERFBENCH_MEASURE_HH
#define MOENTWINE_PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "network/traffic.hh"

namespace perfbench {

/** Host seconds since an arbitrary fixed origin (steady clock). */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------ percentiles

/** Samples a timing percentile must have beyond it to be reported. */
constexpr std::size_t kMinTailSamples = 10;

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of @p samples; 0 for an
 * empty set.
 */
double percentile(std::vector<double> samples, double p);

/** Median (the 50th nearest-rank percentile). */
inline double
median(const std::vector<double> &samples)
{
    return percentile(samples, 50.0);
}

/** Samples strictly beyond the nearest-rank @p p-th percentile of n. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest of p50, p90, p99, p99.9 that keeps at least
 * kMinTailSamples samples beyond it; 0 when even the median does not.
 */
double highestReportablePercentile(std::size_t n);

/** True when percentile @p p of @p n samples may be reported. */
inline bool
percentileReportable(std::size_t n, double p)
{
    return samplesBeyond(n, p) >= kMinTailSamples;
}

// ----------------------------------------------------------------- digest

/** FNV-1a 64 over the exact bit patterns of simulated outputs. */
class Digest
{
  public:
    void add(double v);
    void add(std::int64_t v);
    std::uint64_t value() const { return h_; }

  private:
    void bytes(const void *p, std::size_t n);
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** Digest as 16 hex digits. */
std::string hex(std::uint64_t digest);

// ------------------------------------------------------------- invariants

/**
 * Gating conservation: every row of counts[group][expert] sums to
 * tokens × topK. Returns the number of rows that do not.
 */
std::size_t badGatingRows(const std::vector<std::vector<int>> &counts,
                          int tokens, int topK);

/**
 * Byte conservation of one MoE layer: the combine flows are exactly
 * the dispatch flows reversed (same pairs, bitwise equal bytes), so
 * dispatch bytes equal combine bytes pair by pair.
 */
bool dispatchEqualsCombine(const std::vector<moentwine::Flow> &dispatch,
                           const std::vector<moentwine::Flow> &combine);

/** Request conservation of a fleet run:
 *  completed + shed + failed + frontDoorShed == totalRequests. */
bool fleetConserved(const moentwine::FleetReport &r);

// ------------------------------------------------------------------ spans

/**
 * Host-time spans kept in memory: name, start, end and the enclosing
 * span. Self time is a span's duration minus what its children cover.
 */
class SpanLog
{
  public:
    /** Open a span nested in the innermost open one. */
    void begin(const char *name);
    /** Close the innermost open span. */
    void end();

    struct Span
    {
        const char *name;
        int parent;
        double start;
        double end;
    };
    const std::vector<Span> &spans() const { return spans_; }

    /** Self seconds summed by span name, in first-seen order. */
    std::vector<std::pair<std::string, double>> selfTimes() const;

    /**
     * Write the spans as a host-time Chrome trace (one track), stopping
     * at the first top-level span that starts past @p maxSpans spans so
     * long replays keep a loadable file.
     */
    bool writeChromeTrace(const std::string &path, const std::string &process,
                          std::size_t maxSpans) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name) : log_(log)
    {
        if (log_ != nullptr)
            log_->begin(name);
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->end();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
};

// -------------------------------------------------------------- resources

/** User plus system CPU seconds of this process so far. */
double processCpuSeconds();

/** Peak resident set of this process, in MB (ru_maxrss). */
double peakRssMb();

} // namespace perfbench

#endif // MOENTWINE_PERFBENCH_MEASURE_HH
