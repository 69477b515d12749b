/**
 * @file
 * Tests for the Non-invasive Balancer: hidden migration planning,
 * idle-budget draining, and completion-driven placement activation.
 */

#include <gtest/gtest.h>

#include "balancer/ni_balancer.hh"
#include "common/stats.hh"
#include "mapping/er_mapping.hh"
#include "topology/mesh.hh"

// Counting global allocator (g_allocCount) for the allocation-free
// advance() assertion.
#include "alloc_counter.hh"

using namespace moentwine;

namespace {

/** 4×4 ER-mapped wafer with 16 experts on 16 devices. */
struct Fixture
{
    Fixture()
        : mesh(MeshTopology::singleWafer(4)),
          er(mesh, ParallelismConfig{2, 2})
    {
    }

    std::vector<double>
    skewedLoads() const
    {
        std::vector<double> loads(16, 0.0);
        for (int e = 0; e < 16; ++e)
            loads[std::size_t(e)] = 1000.0 / (e + 1);
        return loads;
    }

    MeshTopology mesh;
    ErMapping er;
};

} // namespace

TEST(NiBalancer, PlanEnqueuesPendingMigrations)
{
    Fixture f;
    NiBalancer ni(f.er, 42e6);
    ExpertPlacement p(16, 16, 1);
    const int n = ni.plan(f.skewedLoads(), p);
    EXPECT_GT(n, 0);
    EXPECT_EQ(ni.pendingCount(), std::size_t(n));
}

TEST(NiBalancer, ReplicasNotActiveUntilTransferCompletes)
{
    Fixture f;
    NiBalancer ni(f.er, 42e6);
    ExpertPlacement p(16, 16, 1);
    const auto loads = f.skewedLoads();
    const double before = maxOf(p.deviceHeats(loads));
    ni.plan(loads, p);
    // Placement unchanged (migrations pending, nothing arrived yet).
    EXPECT_NEAR(maxOf(p.deviceHeats(loads)), before, 1e-9);
}

TEST(NiBalancer, IdleWindowsDrainMigrations)
{
    Fixture f;
    NiBalancer ni(f.er, 42e6);
    ExpertPlacement p(16, 16, 1);
    const auto loads = f.skewedLoads();
    ni.plan(loads, p);

    // Empty traffic → full link bandwidth available. A generous window
    // must complete everything within a few alternating phases.
    const PhaseTraffic idle(f.mesh);
    int completed = 0;
    for (int phase = 0; phase < 20 && ni.pendingCount() > 0; ++phase) {
        completed += ni.advanceAttention(idle, 1e-3, p);
        completed += ni.advanceMoe(idle, 1e-3, p);
    }
    EXPECT_EQ(ni.pendingCount(), 0u);
    EXPECT_GT(completed, 0);
    // Completed replicas now reduce peak heat.
    EXPECT_LT(maxOf(p.deviceHeats(loads)), 1000.0);
}

TEST(NiBalancer, ZeroWindowMakesNoProgress)
{
    Fixture f;
    NiBalancer ni(f.er, 42e6);
    ExpertPlacement p(16, 16, 1);
    ni.plan(f.skewedLoads(), p);
    const PhaseTraffic idle(f.mesh);
    EXPECT_EQ(ni.advanceAttention(idle, 0.0, p), 0);
    EXPECT_EQ(ni.advanceMoe(idle, 0.0, p), 0);
    EXPECT_GT(ni.pendingCount(), 0u);
}

TEST(NiBalancer, SaturatedLinksBlockProgress)
{
    Fixture f;
    NiBalancer ni(f.er, 42e6);
    ExpertPlacement p(16, 16, 1);
    ni.plan(f.skewedLoads(), p);

    // Saturate every link far beyond the window capacity.
    PhaseTraffic busy(f.mesh);
    for (DeviceId a = 0; a < f.mesh.numDevices(); ++a)
        for (DeviceId b = 0; b < f.mesh.numDevices(); ++b)
            busy.addFlow(a, b, 1e12);
    const double hidden = ni.hiddenBytesMoved();
    ni.advanceAttention(busy, 1e-6, p);
    ni.advanceMoe(busy, 1e-6, p);
    EXPECT_DOUBLE_EQ(ni.hiddenBytesMoved(), hidden);
}

TEST(NiBalancer, HiddenBytesAccumulate)
{
    Fixture f;
    NiBalancer ni(f.er, 42e6);
    ExpertPlacement p(16, 16, 1);
    ni.plan(f.skewedLoads(), p);
    const PhaseTraffic idle(f.mesh);
    ni.advanceAttention(idle, 1e-5, p);
    ni.advanceMoe(idle, 1e-5, p);
    EXPECT_GT(ni.hiddenBytesMoved(), 0.0);
}

TEST(NiBalancer, RePlanDoesNotDuplicatePending)
{
    Fixture f;
    NiBalancer ni(f.er, 42e6);
    ExpertPlacement p(16, 16, 1);
    const auto loads = f.skewedLoads();
    const int first = ni.plan(loads, p);
    const int second = ni.plan(loads, p);
    EXPECT_GT(first, 0);
    EXPECT_EQ(second, 0); // identical target, transfers in flight
    EXPECT_EQ(ni.pendingCount(), std::size_t(first));
}

TEST(NiBalancer, PartialWindowNeedsMultiplePhases)
{
    Fixture f;
    // Huge expert (1 GB) with a tiny window: progress must take more
    // than one attention/MoE pair.
    NiBalancer ni(f.er, 1e9);
    ExpertPlacement p(16, 16, 1);
    ni.plan(f.skewedLoads(), p);
    const PhaseTraffic idle(f.mesh);
    ni.advanceAttention(idle, 1e-5, p);
    ni.advanceMoe(idle, 1e-5, p);
    EXPECT_GT(ni.pendingCount(), 0u);
}

TEST(NiBalancer, BalanceQualityEventuallyMatchesInvasive)
{
    Fixture f;
    const auto loads = f.skewedLoads();

    ExpertPlacement invasive(16, 16, 1);
    TopologyAwareBalancer tb(f.mesh);
    tb.rebalance(loads, invasive);

    ExpertPlacement hidden(16, 16, 1);
    NiBalancer ni(f.er, 42e6);
    ni.plan(loads, hidden);
    const PhaseTraffic idle(f.mesh);
    for (int phase = 0; phase < 50 && ni.pendingCount() > 0; ++phase) {
        ni.advanceAttention(idle, 1e-3, hidden);
        ni.advanceMoe(idle, 1e-3, hidden);
    }
    EXPECT_NEAR(maxOf(hidden.deviceHeats(loads)),
                maxOf(invasive.deviceHeats(loads)), 1e-6);
}

TEST(NiBalancer, SteadyStateAdvanceIsAllocationFree)
{
    Fixture f;
    // 100 MB experts drain over many phases; the warm-up pair prices
    // every link once, then the counted phases must not allocate —
    // neither while draining nor when completed replicas activate.
    NiBalancer ni(f.er, 100e6);
    ExpertPlacement p(16, 16, 1);
    ni.plan(f.skewedLoads(), p);
    PhaseTraffic traffic(f.mesh);
    for (DeviceId a = 0; a < f.mesh.numDevices(); a += 3)
        traffic.addFlow(a, f.mesh.numDevices() - 1 - a, 5e5);
    ni.advanceAttention(traffic, 1e-4, p);
    ni.advanceMoe(traffic, 1e-4, p);
    const std::size_t pendingBefore = ni.pendingCount();
    ASSERT_GT(pendingBefore, 0u);

    const std::size_t before = g_allocCount.load();
    int completed = 0;
    for (int phase = 0; phase < 200 && ni.pendingCount() > 0; ++phase) {
        completed += ni.advanceAttention(traffic, 1e-4, p);
        completed += ni.advanceMoe(traffic, 1e-4, p);
    }
    EXPECT_EQ(g_allocCount.load(), before)
        << "steady-state advance must not allocate";
    EXPECT_EQ(ni.pendingCount(), 0u);
    EXPECT_EQ(std::size_t(completed), pendingBefore);
}
