/**
 * @file
 * Tests of the benchmark's own measurement rules and output checks:
 * the percentile and sample-count rule, the digest and replay checks
 * flagging a perturbed row, and each invariant check flagging a
 * violation planted on purpose.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "measure.hh"
#include "replay.hh"
#include "workloads.hh"

using namespace moentwine;
using namespace perfbench;

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50.0), 50.0);
    EXPECT_EQ(percentile(v, 90.0), 90.0);
    EXPECT_EQ(percentile(v, 100.0), 100.0);
    EXPECT_EQ(percentile({7.0}, 90.0), 7.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, TenSamplesBeyondRule)
{
    EXPECT_EQ(samplesBeyond(100, 90.0), 10u);
    EXPECT_TRUE(percentileReportable(100, 90.0));
    EXPECT_FALSE(percentileReportable(99, 90.0));
    EXPECT_FALSE(percentileReportable(19, 50.0));
    EXPECT_TRUE(percentileReportable(20, 50.0));

    EXPECT_EQ(highestReportablePercentile(0), 0.0);
    EXPECT_EQ(highestReportablePercentile(19), 0.0);
    EXPECT_EQ(highestReportablePercentile(20), 50.0);
    EXPECT_EQ(highestReportablePercentile(99), 50.0);
    EXPECT_EQ(highestReportablePercentile(100), 90.0);
    EXPECT_EQ(highestReportablePercentile(1000), 99.0);
    EXPECT_EQ(highestReportablePercentile(10000), 99.9);
}

namespace {

System
smallSystem()
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    return System::make(sc);
}

EngineConfig
smallEngine(BalancerKind balancer)
{
    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.mixPeriod = 20;
    ec.balancer = balancer;
    ec.alpha = 0.5;
    ec.beta = 3;
    return ec;
}

} // namespace

TEST(Digest, FlagsAPerturbedRow)
{
    const System sys = smallSystem();
    InferenceEngine engine(sys.mapping(), smallEngine(BalancerKind::None));
    const IterationStats row = engine.step();
    IterationStats perturbed = row;
    perturbed.dispatch = std::nextafter(row.dispatch, 1.0);

    Digest a, b, c;
    digestStats(a, row);
    digestStats(b, row);
    digestStats(c, perturbed);
    EXPECT_EQ(a.value(), b.value());
    EXPECT_NE(a.value(), c.value());
    EXPECT_TRUE(sameStats(row, row));
    EXPECT_FALSE(sameStats(row, perturbed));

    IterationStats count = row;
    count.migrationsPlanned += 1;
    EXPECT_FALSE(sameStats(row, count));
}

TEST(Replay, MatchesTheEngineBitwiseForEveryBalancer)
{
    const System sys = smallSystem();
    for (const BalancerKind kind :
         {BalancerKind::None, BalancerKind::Greedy,
          BalancerKind::TopologyAware, BalancerKind::NonInvasive}) {
        const EngineConfig ec = smallEngine(kind);
        InferenceEngine engine(sys.mapping(), ec);
        ReplayEngine replay(sys.mapping(), ec);
        SpanLog spans;
        WorkCounts counts;
        for (int i = 0; i < 30; ++i) {
            const IterationStats want = engine.step();
            const IterationStats got = replay.step(
                replay.configuredDemand(), i % 2 ? &spans : nullptr, counts,
                true);
            ASSERT_TRUE(sameStats(want, got))
                << "balancer " << static_cast<int>(kind) << " step " << i;
        }
        EXPECT_EQ(counts.steps, 30);
        EXPECT_EQ(counts.badGatingSteps, 0);
        EXPECT_EQ(counts.badBytesSteps, 0);
        EXPECT_EQ(counts.draws, 30LL * 64 * ec.model.expertsActivated *
                                    sys.mapping().dp());
    }
}

TEST(Invariants, GatingRowSumsFlagAMovedToken)
{
    std::vector<std::vector<int>> counts = {{3, 1, 0, 4}, {0, 0, 8, 0}};
    EXPECT_EQ(badGatingRows(counts, 4, 2), 0u);
    counts[1][2] -= 1; // a dropped draw
    EXPECT_EQ(badGatingRows(counts, 4, 2), 1u);
    counts[1][2] += 1;
    counts[0][0] = -1; // negative count, row sum restored elsewhere
    counts[0][1] = 5;
    EXPECT_EQ(badGatingRows(counts, 4, 2), 1u);
}

TEST(Invariants, DispatchEqualsCombineFlagsAPerturbedFlow)
{
    const std::vector<Flow> dispatch = {{0, 1, 10.0}, {2, 3, 4.5}};
    std::vector<Flow> combine = {{3, 2, 4.5}, {1, 0, 10.0}};
    EXPECT_TRUE(dispatchEqualsCombine(dispatch, combine));
    combine[0].bytes = std::nextafter(4.5, 5.0);
    EXPECT_FALSE(dispatchEqualsCombine(dispatch, combine));
    combine[0] = {2, 3, 4.5}; // not reversed
    EXPECT_FALSE(dispatchEqualsCombine(dispatch, combine));
    combine.pop_back();
    EXPECT_FALSE(dispatchEqualsCombine(dispatch, combine));
}

TEST(Invariants, FleetConservationFlagsALostRequest)
{
    FleetReport r;
    r.totalRequests = 10;
    r.completedRequests = 6;
    r.shedRequests = 2;
    r.failedRequests = 1;
    r.frontDoorShed = 1;
    EXPECT_TRUE(fleetConserved(r));
    r.completedRequests = 5;
    EXPECT_FALSE(fleetConserved(r));
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    SpanLog log;
    log.begin("outer");
    log.begin("inner");
    log.end();
    log.begin("inner");
    log.end();
    log.end();
    const auto self = log.selfTimes();
    ASSERT_EQ(self.size(), 2u);
    EXPECT_EQ(self[0].first, "outer");
    EXPECT_EQ(self[1].first, "inner");
    const auto &s = log.spans();
    const double outer = s[0].end - s[0].start;
    EXPECT_NEAR(self[0].second + self[1].second, outer, 1e-12);
    EXPECT_GE(self[0].second, 0.0);
}

TEST(Workloads, ServeFleetPassesRepeatAndConserve)
{
    const auto w = makeWorkload("serve_fleet", 7, 1);
    ASSERT_NE(w, nullptr);
    const PassResult a = w->pass();
    const PassResult b = w->pass();
    EXPECT_TRUE(a.failure.empty()) << a.failure;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_GT(a.iterations, 0);
    const LayerResult l = w->layers(nullptr, 4);
    EXPECT_EQ(l.mismatchedSteps, 0);
    EXPECT_EQ(l.counts.badGatingSteps, 0);
    EXPECT_EQ(l.counts.badBytesSteps, 0);
}

TEST(Workloads, SeedChangesTheInputs)
{
    EXPECT_NE(subSeed(1, 0), subSeed(2, 0));
    EXPECT_NE(subSeed(1, 0), subSeed(1, 1));
    const auto a = makeWorkload("balance_sweep", 1, 2);
    const auto b = makeWorkload("balance_sweep", 2, 2);
    EXPECT_NE(a->pass().digest, b->pass().digest);
    double serial = 0.0;
    EXPECT_EQ(a->crossCheck(serial), "");
    EXPECT_GT(serial, 0.0);
    EXPECT_EQ(makeWorkload("nope", 1, 1), nullptr);
}
