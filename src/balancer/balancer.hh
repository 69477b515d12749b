/**
 * @file
 * Expert load balancers: the Eq.(2) rebalance trigger, the EPLB-style
 * greedy balancer, and the topology-aware balancer of Algorithm 1.
 *
 * Both balancers plan a *target* placement from the predicted expert
 * loads: starting from the native placement, they repeatedly replicate
 * the most loaded expert of the hottest device onto a colder device
 * until peak heat can no longer be reduced. They differ in destination
 * choice:
 *  - Greedy (EPLB): the globally coldest device with a free slot,
 *    copied from the expert's first (native) replica — oblivious to
 *    distance, hence long invasive migrations;
 *  - Topology-aware (Algorithm 1): among the devices whose heat would
 *    stay below the current peak, the one nearest to an existing
 *    replica — same balance quality, far shorter transfers.
 *
 * The migration steps returned are the replica copies that must move
 * weights over the network; dropping stale shadow replicas is free.
 *
 * Per-plan cost is O(rounds × devices) for both balancers. Each round
 * scans the devices once for the hottest and once for the cold set,
 * choosing the destination during that scan; the topology-aware choice
 * reads a per-expert nearest-replica hop row instead of rescanning
 * every replica of the expert per candidate. That row is built from
 * the expert's replicas the first time it is replicated in a plan and
 * folded with Topology::minHopsFrom() after every addition (replica
 * sets only grow inside one plan, so it stays exact). "Already held
 * before the re-plan" is a binary search in a per-expert sorted
 * snapshot. Both balancers keep these buffers as members across plans.
 *
 * Tie-break contract (what makes plans reproducible across storages
 * and refactors):
 *  - cold candidates are scanned in ascending device id; the
 *    topology-aware choice keeps the first candidate with strictly
 *    fewer hops to the nearest replica, then strictly lower heat; the
 *    greedy choice keeps the first with strictly lower heat;
 *  - copy sources are chosen among the replicas held before the
 *    re-plan, scanned in ascending device id (first strictly nearest
 *    for topology-aware, the lowest id for greedy);
 *  - co-location is decided by ExpertPlacement, never by a zero hop
 *    count: a degraded (FaultTopology) overlay reports 0 hops for
 *    unreachable pairs.
 */

#ifndef MOENTWINE_BALANCER_BALANCER_HH
#define MOENTWINE_BALANCER_BALANCER_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "balancer/placement.hh"
#include "topology/topology.hh"

namespace moentwine {

/** One expert-weight copy over the network. */
struct MigrationStep
{
    /** Expert whose weights are copied. */
    int expert;
    /** Replica device the weights are read from. */
    DeviceId srcDevice;
    /** Shadow slot the weights are written to. */
    DeviceId dstDevice;
};

/**
 * Eq.(2) rebalance trigger: fires when the cumulative imbalance degree
 * exceeds alpha and at least beta iterations have passed since the last
 * migration (beta = 0 for non-invasive balancing).
 */
class RebalanceTrigger
{
  public:
    /**
     * @param alpha Cumulative imbalance threshold (> 0).
     * @param beta  Minimum iterations between migrations (≥ 0).
     */
    RebalanceTrigger(double alpha, int beta);

    /**
     * Record one iteration's imbalance degree; returns true when the
     * trigger fires (and resets the accumulator).
     */
    bool poll(double imbalance);

    /** Accumulated imbalance since the last firing. */
    double accumulated() const { return accumulated_; }

  private:
    double alpha_;
    int beta_;
    double accumulated_ = 0.0;
    int sinceLast_;
};

/**
 * Reusable buffers of one rebalance (see balancer.cc). Contents are
 * rebuilt by every plan; only their capacity carries over.
 */
struct PlanScratch
{
    /** (expert, dst) replica additions of the current plan, in order. */
    std::vector<std::pair<int, DeviceId>> added;
    /** Per-expert [begin, end) into beforeDevices (experts + 1). */
    std::vector<std::size_t> beforeBegin;
    /** Replicas held before the re-plan, ascending per expert. */
    std::vector<DeviceId> beforeDevices;
    /** Expert → index of its nearest-replica hop row, or -1. */
    std::vector<int> rowOf;
    /** Nearest-replica hop rows, Topology::numDevices() entries each. */
    std::vector<int> rows;
};

/**
 * Base class of placement balancers.
 */
class Balancer
{
  public:
    virtual ~Balancer() = default;

    /** Balancer name for bench output. */
    virtual std::string name() const = 0;

    /**
     * Recompute the shadow-replica assignment for the predicted loads.
     *
     * The placement is reset to native and rebuilt; the returned steps
     * are the weight copies required to realise the new assignment
     * relative to @p previous (replicas already present cost nothing).
     *
     * @param expertLoads Predicted per-expert loads.
     * @param placement   Placement to mutate into the new target.
     * @return Required weight-copy migrations.
     */
    virtual std::vector<MigrationStep> rebalance(
        const std::vector<double> &expertLoads,
        ExpertPlacement &placement) = 0;
};

/**
 * EPLB-style greedy balancer (topology-oblivious).
 */
class GreedyBalancer : public Balancer
{
  public:
    std::string name() const override { return "Greedy"; }

    std::vector<MigrationStep> rebalance(
        const std::vector<double> &expertLoads,
        ExpertPlacement &placement) override;

  private:
    PlanScratch scratch_;
};

/**
 * Topology-aware balancer (Algorithm 1 of the paper).
 */
class TopologyAwareBalancer : public Balancer
{
  public:
    /** @param topo Topology used for nearest-destination selection. */
    explicit TopologyAwareBalancer(const Topology &topo);

    std::string name() const override { return "Topology-aware"; }

    std::vector<MigrationStep> rebalance(
        const std::vector<double> &expertLoads,
        ExpertPlacement &placement) override;

  private:
    const Topology &topo_;
    PlanScratch scratch_;
};

} // namespace moentwine

#endif // MOENTWINE_BALANCER_BALANCER_HH
