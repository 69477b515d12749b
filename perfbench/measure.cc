#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <tuple>

#include <sys/resource.h>

#include "obs/trace.hh"

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile p among n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    // The epsilon keeps binary rounding of p / 100 × n (99.9% of 10000
    // is 9990.000000000002) from bumping an exact rank up by one.
    const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::min(n, std::max<std::size_t>(1, static_cast<std::size_t>(r)));
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    const std::size_t k = nearestRank(samples.size(), p) - 1;
    std::nth_element(samples.begin(), samples.begin() + k, samples.end());
    return samples[k];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
highestReportablePercentile(std::size_t n)
{
    double best = 0.0;
    for (const double p : {50.0, 90.0, 99.0, 99.9}) {
        if (percentileReportable(n, p))
            best = p;
    }
    return best;
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 1099511628211ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
}

void
Digest::add(std::int64_t v)
{
    bytes(&v, sizeof v);
}

std::string
hex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::size_t
badGatingRows(const std::vector<std::vector<int>> &counts, int tokens,
              int topK)
{
    const long long want = static_cast<long long>(tokens) * topK;
    std::size_t bad = 0;
    for (const auto &row : counts) {
        long long sum = 0;
        bool negative = false;
        for (const int c : row) {
            negative = negative || c < 0;
            sum += c;
        }
        if (negative || sum != want)
            ++bad;
    }
    return bad;
}

bool
dispatchEqualsCombine(const std::vector<moentwine::Flow> &dispatch,
                      const std::vector<moentwine::Flow> &combine)
{
    if (dispatch.size() != combine.size())
        return false;
    using Key = std::tuple<int, int, double>;
    std::vector<Key> d;
    std::vector<Key> c;
    d.reserve(dispatch.size());
    c.reserve(combine.size());
    for (const auto &f : dispatch)
        d.emplace_back(f.src, f.dst, f.bytes);
    for (const auto &f : combine)
        c.emplace_back(f.dst, f.src, f.bytes);
    std::sort(d.begin(), d.end());
    std::sort(c.begin(), c.end());
    return d == c;
}

bool
fleetConserved(const moentwine::FleetReport &r)
{
    return r.completedRequests + r.shedRequests + r.failedRequests +
               r.frontDoorShed ==
        r.totalRequests;
}

void
SpanLog::begin(const char *name)
{
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, nowSeconds(), 0.0});
    open_.push_back(static_cast<int>(spans_.size() - 1));
}

void
SpanLog::end()
{
    spans_[static_cast<std::size_t>(open_.back())].end = nowSeconds();
    open_.pop_back();
}

std::vector<std::pair<std::string, double>>
SpanLog::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] += spans_[i].end - spans_[i].start;
        if (spans_[i].parent >= 0) {
            self[static_cast<std::size_t>(spans_[i].parent)] -=
                spans_[i].end - spans_[i].start;
        }
    }
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto it = std::find_if(out.begin(), out.end(), [&](const auto &e) {
            return e.first == spans_[i].name;
        });
        if (it == out.end())
            out.emplace_back(spans_[i].name, self[i]);
        else
            it->second += self[i];
    }
    return out;
}

bool
SpanLog::writeChromeTrace(const std::string &path, const std::string &process,
                          std::size_t maxSpans) const
{
    moentwine::TraceSink sink;
    sink.processName(0, process + " (host time)");
    sink.threadName(0, 0, "replayed steps");
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (i >= maxSpans && s.parent < 0)
            break;
        sink.span(0, 0, "host", s.name, s.start - origin, s.end - origin);
    }
    return sink.writeFile(path);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
