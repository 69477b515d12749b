/**
 * @file
 * Tests for the rebalance trigger (Eq. 2) and the greedy /
 * topology-aware balancers (Algorithm 1), plus a bitwise pin of both
 * balancers and of NiBalancer::plan against a reference copy of the
 * original O(rounds × devices × replicas) Algorithm 1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "balancer/balancer.hh"
#include "balancer/ni_balancer.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "fault/fault_topology.hh"
#include "mapping/her_mapping.hh"
#include "topology/mesh.hh"
#include "topology/switch_cluster.hh"

using namespace moentwine;

// ------------------------------------------------------- trigger ----

TEST(Trigger, FiresWhenThresholdExceeded)
{
    RebalanceTrigger t(1.0, 0);
    EXPECT_FALSE(t.poll(0.5));
    EXPECT_TRUE(t.poll(0.6)); // cumulative 1.1 > 1.0
}

TEST(Trigger, ResetsAfterFiring)
{
    RebalanceTrigger t(1.0, 0);
    t.poll(0.8);
    EXPECT_TRUE(t.poll(0.5));
    EXPECT_DOUBLE_EQ(t.accumulated(), 0.0);
    EXPECT_FALSE(t.poll(0.5));
}

TEST(Trigger, BetaEnforcesCooldown)
{
    RebalanceTrigger t(0.1, 5);
    EXPECT_TRUE(t.poll(1.0)); // first firing allowed immediately
    // Large imbalance, but within beta iterations — suppressed.
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(t.poll(1.0)) << "iteration " << i;
    EXPECT_TRUE(t.poll(1.0));
}

TEST(Trigger, BetaZeroAllowsBackToBack)
{
    RebalanceTrigger t(0.1, 0);
    EXPECT_TRUE(t.poll(1.0));
    EXPECT_TRUE(t.poll(1.0));
}

TEST(Trigger, ZeroImbalanceNeverFires)
{
    RebalanceTrigger t(0.5, 0);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(t.poll(0.0));
}

// ------------------------------------------------------- helpers ----

namespace {

/** Skewed loads: expert e gets weight 1/(e+1). */
std::vector<double>
skewedLoads(int experts, double scale = 1000.0)
{
    std::vector<double> loads(static_cast<std::size_t>(experts));
    for (int e = 0; e < experts; ++e)
        loads[std::size_t(e)] = scale / (e + 1);
    return loads;
}

double
peakHeat(const ExpertPlacement &p, const std::vector<double> &loads)
{
    return maxOf(p.deviceHeats(loads));
}

} // namespace

// -------------------------------------------------------- greedy ----

TEST(GreedyBalancer, ReducesPeakHeat)
{
    ExpertPlacement p(16, 16, 1);
    const auto loads = skewedLoads(16);
    const double before = peakHeat(p, loads);
    GreedyBalancer gb;
    gb.rebalance(loads, p);
    EXPECT_LT(peakHeat(p, loads), before);
}

TEST(GreedyBalancer, ReturnsMigrationSteps)
{
    ExpertPlacement p(16, 16, 1);
    GreedyBalancer gb;
    const auto steps = gb.rebalance(skewedLoads(16), p);
    EXPECT_FALSE(steps.empty());
    for (const auto &s : steps) {
        EXPECT_NE(s.srcDevice, s.dstDevice);
        EXPECT_TRUE(p.hosts(s.dstDevice, s.expert));
    }
}

TEST(GreedyBalancer, IdempotentOnSameLoads)
{
    ExpertPlacement p(16, 16, 1);
    const auto loads = skewedLoads(16);
    GreedyBalancer gb;
    gb.rebalance(loads, p);
    // Re-planning with identical loads keeps the same target: no new
    // weight copies needed.
    const auto steps = gb.rebalance(loads, p);
    EXPECT_TRUE(steps.empty());
}

TEST(GreedyBalancer, UniformLoadsNeedNoSteps)
{
    ExpertPlacement p(16, 16, 1);
    const std::vector<double> loads(16, 10.0);
    GreedyBalancer gb;
    EXPECT_TRUE(gb.rebalance(loads, p).empty());
}

TEST(GreedyBalancer, RespectsSlotCapacity)
{
    ExpertPlacement p(16, 16, 1);
    GreedyBalancer gb;
    gb.rebalance(skewedLoads(16), p);
    for (DeviceId d = 0; d < 16; ++d)
        EXPECT_GE(p.freeSlots(d), 0);
}

TEST(GreedyBalancer, ZeroShadowSlotsNoSteps)
{
    ExpertPlacement p(16, 16, 0);
    GreedyBalancer gb;
    EXPECT_TRUE(gb.rebalance(skewedLoads(16), p).empty());
}

// ------------------------------------------------ topology-aware ----

TEST(TopoBalancer, ReducesPeakHeat)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    ExpertPlacement p(16, 16, 1);
    const auto loads = skewedLoads(16);
    const double before = peakHeat(p, loads);
    TopologyAwareBalancer tb(mesh);
    tb.rebalance(loads, p);
    EXPECT_LT(peakHeat(p, loads), before);
}

TEST(TopoBalancer, BalanceQualityMatchesGreedy)
{
    // Algorithm 1 claims equal balance at lower migration cost; allow
    // a small tolerance on the peak heat.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const auto loads = skewedLoads(16);
    ExpertPlacement pg(16, 16, 1);
    ExpertPlacement pt(16, 16, 1);
    GreedyBalancer gb;
    TopologyAwareBalancer tb(mesh);
    gb.rebalance(loads, pg);
    tb.rebalance(loads, pt);
    EXPECT_LE(peakHeat(pt, loads), peakHeat(pg, loads) * 1.10);
}

TEST(TopoBalancer, ShorterMigrationsThanGreedy)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const auto loads = skewedLoads(16);
    ExpertPlacement pg(16, 16, 1);
    ExpertPlacement pt(16, 16, 1);
    GreedyBalancer gb;
    TopologyAwareBalancer tb(mesh);
    const auto gs = gb.rebalance(loads, pg);
    const auto ts = tb.rebalance(loads, pt);
    ASSERT_FALSE(gs.empty());
    ASSERT_FALSE(ts.empty());
    auto avgHops = [&](const std::vector<MigrationStep> &steps) {
        double total = 0.0;
        for (const auto &s : steps)
            total += mesh.hops(s.srcDevice, s.dstDevice);
        return total / steps.size();
    };
    EXPECT_LE(avgHops(ts), avgHops(gs));
}

TEST(TopoBalancer, SourceIsAnExistingReplica)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    ExpertPlacement p(16, 16, 1);
    TopologyAwareBalancer tb(mesh);
    const auto steps = tb.rebalance(skewedLoads(16), p);
    for (const auto &s : steps) {
        // Source must be the expert's native device here (only replica
        // before the re-plan).
        EXPECT_EQ(s.srcDevice, s.expert % 16);
    }
}

TEST(TopoBalancer, PeakNeverIncreases)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    TopologyAwareBalancer tb(mesh);
    // Sweep several load shapes; Algorithm 1 must never worsen peak.
    for (const double zipfScale : {10.0, 100.0, 5000.0}) {
        ExpertPlacement p(16, 16, 2);
        const auto loads = skewedLoads(16, zipfScale);
        const double before = peakHeat(p, loads);
        tb.rebalance(loads, p);
        EXPECT_LE(peakHeat(p, loads), before + 1e-9);
    }
}

TEST(TopoBalancer, WorksWithFewExpertsManyDevices)
{
    // Mixtral-style E/D < 1 regime.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    ExpertPlacement p(8, 16, 1);
    TopologyAwareBalancer tb(mesh);
    const auto loads = skewedLoads(8);
    const double before = peakHeat(p, loads);
    tb.rebalance(loads, p);
    EXPECT_LE(peakHeat(p, loads), before + 1e-9);
}

TEST(TopoBalancer, Names)
{
    const MeshTopology mesh = MeshTopology::singleWafer(2);
    EXPECT_EQ(GreedyBalancer{}.name(), "Greedy");
    EXPECT_EQ(TopologyAwareBalancer{mesh}.name(), "Topology-aware");
}

// ------------------------------------------- bitwise reference pin ----

namespace reference {

// Verbatim copy of the original Algorithm 1 implementation: every
// round rescans each cold candidate against every replica through
// Topology::hops(), and the before-snapshot is a std::set walked once
// per added replica. The production planner must reproduce its
// migration steps and placements exactly.


/** Destination/source policy for the shared replication loop. */
struct ReplicationPolicy
{
    /** Pick the destination among cold candidate devices. */
    DeviceId (*chooseDst)(const Topology *topo,
                          const ExpertPlacement &placement,
                          const std::vector<double> &heats,
                          const std::vector<DeviceId> &candidates,
                          int expert);
    /** Pick the replica the weights are copied from. */
    DeviceId (*chooseSrc)(const Topology *topo,
                          const std::vector<DeviceId> &replicas,
                          DeviceId dst);
};

/**
 * Algorithm 1's core loop: repeatedly replicate the most loaded expert
 * of the hottest device onto a colder device until no improvement is
 * possible. Returns the (expert, dst) additions in order.
 */
std::vector<std::pair<int, DeviceId>>
replicationLoop(const std::vector<double> &loads,
                ExpertPlacement &placement, const Topology *topo,
                const ReplicationPolicy &policy)
{
    std::vector<std::pair<int, DeviceId>> added;
    const int maxAdds = placement.numDevices() * placement.shadowSlots();

    // Track loads so each round reads the incrementally maintained
    // heat vector and every addReplica() updates it in O(replicas) —
    // instead of the O(devices × experts) recompute per round.
    placement.setExpertLoads(loads);
    for (int round = 0; round < maxAdds; ++round) {
        const std::vector<double> &heats = placement.heats();
        const auto hottest = static_cast<DeviceId>(
            std::max_element(heats.begin(), heats.end()) - heats.begin());

        // Most loaded per-replica share on the hottest device.
        int srcExpert = -1;
        double share = 0.0;
        for (const int e : placement.expertsOn(hottest)) {
            const double s = loads[static_cast<std::size_t>(e)] /
                placement.numReplicas(e);
            if (s > share) {
                share = s;
                srcExpert = e;
            }
        }
        if (srcExpert < 0 || share <= 0.0)
            break; // nothing worth replicating

        // Cold set (paper line 5): devices whose heat would stay below
        // the current peak after hosting one more replica share, with a
        // free slot and no existing replica. Adding the new share to
        // the candidate keeps the global peak strictly decreasing.
        const double newShare = loads[static_cast<std::size_t>(
                                    srcExpert)] /
            (placement.numReplicas(srcExpert) + 1);
        std::vector<DeviceId> cold;
        for (DeviceId d = 0; d < placement.numDevices(); ++d) {
            if (d == hottest || placement.freeSlots(d) <= 0 ||
                placement.hosts(d, srcExpert)) {
                continue;
            }
            if (heats[static_cast<std::size_t>(d)] + newShare <
                heats[static_cast<std::size_t>(hottest)]) {
                cold.push_back(d);
            }
        }
        if (cold.empty())
            break; // line 6: no capable destination remains

        const DeviceId dst =
            policy.chooseDst(topo, placement, heats, cold, srcExpert);
        placement.addReplica(srcExpert, dst);
        added.emplace_back(srcExpert, dst);
    }
    placement.clearExpertLoads();
    return added;
}

DeviceId
coldestDst(const Topology *, const ExpertPlacement &,
           const std::vector<double> &heats,
           const std::vector<DeviceId> &candidates, int)
{
    DeviceId best = candidates.front();
    for (const DeviceId d : candidates) {
        if (heats[static_cast<std::size_t>(d)] <
            heats[static_cast<std::size_t>(best)]) {
            best = d;
        }
    }
    return best;
}

DeviceId
nearestDst(const Topology *topo, const ExpertPlacement &placement,
           const std::vector<double> &heats,
           const std::vector<DeviceId> &candidates, int expert)
{
    DeviceId best = candidates.front();
    int bestHops = std::numeric_limits<int>::max();
    for (const DeviceId d : candidates) {
        int h = std::numeric_limits<int>::max();
        for (const DeviceId r : placement.replicasOf(expert))
            h = std::min(h, topo->hops(r, d));
        if (h < bestHops ||
            (h == bestHops && heats[static_cast<std::size_t>(d)] <
                                  heats[static_cast<std::size_t>(best)])) {
            bestHops = h;
            best = d;
        }
    }
    return best;
}

DeviceId
firstReplicaSrc(const Topology *, const std::vector<DeviceId> &replicas,
                DeviceId)
{
    return replicas.front();
}

DeviceId
nearestReplicaSrc(const Topology *topo,
                  const std::vector<DeviceId> &replicas, DeviceId dst)
{
    DeviceId best = replicas.front();
    int bestHops = std::numeric_limits<int>::max();
    for (const DeviceId r : replicas) {
        const int h = topo->hops(r, dst);
        if (h < bestHops) {
            bestHops = h;
            best = r;
        }
    }
    return best;
}

/**
 * Shared rebalance driver: rebuild the target from native, run the
 * loop, and diff against the previous replica set to derive the weight
 * copies actually required.
 */
std::vector<MigrationStep>
rebalanceWith(const std::vector<double> &loads, ExpertPlacement &placement,
              const Topology *topo, const ReplicationPolicy &policy)
{
    // Snapshot the replicas present before re-planning: copies to a
    // device that already held the expert are free.
    std::set<std::pair<int, DeviceId>> before;
    for (int e = 0; e < placement.numExperts(); ++e)
        for (const DeviceId d : placement.replicasOf(e))
            before.emplace(e, d);

    placement.resetToNative();
    const auto added = replicationLoop(loads, placement, topo, policy);

    std::vector<MigrationStep> steps;
    for (const auto &[expert, dst] : added) {
        if (before.count({expert, dst}))
            continue;
        // Copy sources must hold the weights *now*: pick among the
        // replicas present before the re-plan.
        std::vector<DeviceId> holders;
        for (const auto &[e, d] : before)
            if (e == expert)
                holders.push_back(d);
        MOE_ASSERT(!holders.empty(), "expert with no prior replica");
        const DeviceId src = policy.chooseSrc(topo, holders, dst);
        steps.push_back(MigrationStep{expert, src, dst});
    }
    return steps;
}


std::vector<MigrationStep>
greedy(const std::vector<double> &loads, ExpertPlacement &placement)
{
    const ReplicationPolicy policy{coldestDst, firstReplicaSrc};
    return rebalanceWith(loads, placement, nullptr, policy);
}

std::vector<MigrationStep>
topologyAware(const Topology &topo, const std::vector<double> &loads,
              ExpertPlacement &placement)
{
    const ReplicationPolicy policy{nearestDst, nearestReplicaSrc};
    return rebalanceWith(loads, placement, &topo, policy);
}

} // namespace reference

namespace {

/**
 * Seeded skewed loads: a Zipf curve with a random exponent over a
 * random expert permutation. Every fourth seed quantises the loads so
 * exact heat ties exercise the tie-break contract; every fourth seed
 * (offset one) zeroes a few experts.
 */
std::vector<double>
seededLoads(int experts, std::uint64_t seed)
{
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    auto next = [&state]() {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    };
    auto uniform = [&next]() {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    };
    std::vector<int> rank(static_cast<std::size_t>(experts));
    for (int e = 0; e < experts; ++e)
        rank[std::size_t(e)] = e;
    for (int i = experts - 1; i > 0; --i) {
        const auto j = static_cast<int>(next() % std::uint64_t(i + 1));
        std::swap(rank[std::size_t(i)], rank[std::size_t(j)]);
    }
    const double exponent = 0.6 + 1.2 * uniform();
    std::vector<double> loads(static_cast<std::size_t>(experts));
    for (int e = 0; e < experts; ++e) {
        double load = 1000.0 / std::pow(rank[std::size_t(e)] + 1.0,
                                        exponent);
        if (seed % 4 == 0)
            load = std::floor(load / 25.0) * 25.0;
        if (seed % 4 == 1 && rank[std::size_t(e)] % 7 == 3)
            load = 0.0;
        loads[std::size_t(e)] = load;
    }
    return loads;
}

void
expectSameSteps(const std::vector<MigrationStep> &got,
                const std::vector<MigrationStep> &want,
                const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].expert, want[i].expert) << where << " step " << i;
        EXPECT_EQ(got[i].srcDevice, want[i].srcDevice)
            << where << " step " << i;
        EXPECT_EQ(got[i].dstDevice, want[i].dstDevice)
            << where << " step " << i;
    }
}

void
expectSamePlacement(const ExpertPlacement &got, const ExpertPlacement &want,
                    const std::string &where)
{
    for (int e = 0; e < want.numExperts(); ++e)
        EXPECT_EQ(got.replicasOf(e), want.replicasOf(e))
            << where << " expert " << e;
    for (DeviceId d = 0; d < want.numDevices(); ++d) {
        EXPECT_EQ(got.expertsOn(d), want.expertsOn(d))
            << where << " device " << d;
        EXPECT_EQ(got.freeSlots(d), want.freeSlots(d))
            << where << " device " << d;
    }
}

/**
 * Chain @p plans re-plans (each starting from the previous target, so
 * all but the first re-plan from a non-native placement) through the
 * production Greedy and Topology-aware balancers and the reference,
 * and demand identical steps and placements. When @p lost ≥ 0, that
 * device is lost halfway through the chain.
 */
void
pinAgainstReference(const Topology &topo, int experts, int slots,
                    int plans, DeviceId lost, const std::string &name)
{
    const int devices = topo.numDevices();
    ExpertPlacement greedy(experts, devices, slots);
    ExpertPlacement greedyRef = greedy;
    ExpertPlacement aware = greedy;
    ExpertPlacement awareRef = greedy;
    GreedyBalancer gb;
    TopologyAwareBalancer tb(topo);
    std::size_t moved = 0;
    for (int i = 0; i < plans; ++i) {
        const std::string where = name + " plan " + std::to_string(i);
        if (lost >= 0 && i == plans / 2) {
            for (ExpertPlacement *p : {&greedy, &greedyRef, &aware,
                                       &awareRef}) {
                p->markDeviceLost(lost);
            }
        }
        const auto loads = seededLoads(experts, std::uint64_t(i) + 1);
        const auto gs = gb.rebalance(loads, greedy);
        expectSameSteps(gs, reference::greedy(loads, greedyRef),
                        where + " greedy");
        expectSamePlacement(greedy, greedyRef, where + " greedy");
        const auto ts = tb.rebalance(loads, aware);
        expectSameSteps(ts, reference::topologyAware(topo, loads, awareRef),
                        where + " topology-aware");
        expectSamePlacement(aware, awareRef, where + " topology-aware");
        moved += gs.size() + ts.size();
    }
    EXPECT_GT(moved, 0u) << name << ": the pin never exercised a copy";
}

constexpr int kPinPlans = 16;

} // namespace

TEST(BalancerPin, SingleWafer8x8)
{
    const MeshTopology mesh = MeshTopology::singleWafer(8);
    pinAgainstReference(mesh, 64, 1, kPinPlans, -1, "8x8 E64 S1");
    pinAgainstReference(mesh, 128, 2, kPinPlans, 27, "8x8 E128 S2 lost");
    pinAgainstReference(mesh, 32, 2, kPinPlans, -1, "8x8 E32 S2");
}

TEST(BalancerPin, TwoWafers4x4)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    pinAgainstReference(mesh, 32, 2, kPinPlans, 13, "2x(4x4) lost");
    pinAgainstReference(mesh, 64, 1, kPinPlans, -1, "2x(4x4) E64");
}

TEST(BalancerPin, DgxSwitchCluster)
{
    // Switch routes give only two distinct hop counts, so nearly every
    // destination choice is decided by the heat tie-break.
    const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(4);
    pinAgainstReference(dgx, 64, 2, kPinPlans, 9, "DGX x4 lost");
}

TEST(BalancerPin, Mesh32x32NextHopStorage)
{
    const MeshTopology mesh = MeshTopology::singleWafer(32);
    ASSERT_EQ(mesh.activeRouteStorage(), RouteStorageKind::NextHop);
    pinAgainstReference(mesh, 256, 1, 2, -1, "32x32 E256 S1");
}

TEST(BalancerPin, UncachedRoutes)
{
    MeshTopology mesh = MeshTopology::singleWafer(4);
    mesh.disableRouteCache();
    pinAgainstReference(mesh, 16, 2, kPinPlans, 6, "4x4 uncached");
}

TEST(BalancerPin, IsolatedDeviceReportsZeroHops)
{
    // Device 5 loses every link: the overlay reports 0 hops between it
    // and everyone else. Co-location must still come from the
    // placement, so the planners may not treat those pairs as hosted.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    FaultTopology ft(mesh);
    for (const DeviceId n : {1, 4, 6, 9}) {
        ft.failLink(mesh.linkBetween(5, n));
        ft.failLink(mesh.linkBetween(n, 5));
    }
    ft.rebuildAfterFaults();
    ASSERT_FALSE(ft.reachable(5, 0));
    ASSERT_EQ(ft.hops(5, 0), 0);
    pinAgainstReference(ft, 16, 2, kPinPlans, 5, "4x4 isolated");
}

TEST(BalancerPin, NiBalancerPlanMatchesReference)
{
    // NiBalancer::plan as it was: plan on a copy with the reference
    // Algorithm 1, adopt the target, retract every copy, and enqueue
    // those not already in flight.
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    const HierarchicalErMapping her(mesh, ParallelismConfig{2, 2});
    NiBalancer ni(her, 42e6);
    ExpertPlacement placement(64, mesh.numDevices(), 2);
    ExpertPlacement refPlacement = placement;
    std::vector<MigrationStep> refPending;
    for (int i = 0; i < kPinPlans; ++i) {
        const std::string where = "NI plan " + std::to_string(i);
        const auto loads = seededLoads(64, std::uint64_t(i) + 101);
        const int enqueued = ni.plan(loads, placement);

        ExpertPlacement target = refPlacement;
        const auto steps = reference::topologyAware(mesh, loads, target);
        refPlacement = target;
        int refEnqueued = 0;
        for (const MigrationStep &step : steps) {
            const bool alreadyPending = std::any_of(
                refPending.begin(), refPending.end(),
                [&](const MigrationStep &p) {
                    return p.expert == step.expert &&
                           p.dstDevice == step.dstDevice;
                });
            refPlacement.removeReplica(step.expert, step.dstDevice);
            if (!alreadyPending) {
                refPending.push_back(step);
                ++refEnqueued;
            }
        }
        EXPECT_EQ(enqueued, refEnqueued) << where;
        EXPECT_EQ(ni.pendingCount(), refPending.size()) << where;
        expectSameSteps(ni.pendingSteps(), refPending, where);
        expectSamePlacement(placement, refPlacement, where);
    }
    EXPECT_GT(refPending.size(), 0u);
}
