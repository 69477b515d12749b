#include "balancer/balancer.hh"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/logging.hh"

namespace moentwine {

RebalanceTrigger::RebalanceTrigger(double alpha, int beta)
    : alpha_(alpha), beta_(beta), sinceLast_(beta)
{
    MOE_ASSERT(alpha > 0.0, "alpha must be positive");
    MOE_ASSERT(beta >= 0, "beta must be non-negative");
}

bool
RebalanceTrigger::poll(double imbalance)
{
    MOE_ASSERT(imbalance >= 0.0, "imbalance must be non-negative");
    accumulated_ += imbalance;
    if (accumulated_ > alpha_ && sinceLast_ >= beta_) {
        accumulated_ = 0.0;
        sinceLast_ = 0;
        return true;
    }
    ++sinceLast_;
    return false;
}

namespace {

/**
 * The nearest-replica hop row of @p expert: row[d] = min over the
 * expert's replicas r of hops(r, d), one entry per topology device.
 * Built on the expert's first replication in this plan;
 * replicationLoop() folds in every replica it adds afterwards. The
 * pointer is valid until the next row is built.
 */
int *
nearestRow(PlanScratch &scratch, const Topology &topo,
           const ExpertPlacement &placement, int expert)
{
    const auto devices = static_cast<std::size_t>(topo.numDevices());
    int &slot = scratch.rowOf[static_cast<std::size_t>(expert)];
    if (slot >= 0)
        return scratch.rows.data() + static_cast<std::size_t>(slot) * devices;
    slot = static_cast<int>(scratch.rows.size() / devices);
    scratch.rows.resize(scratch.rows.size() + devices,
                        std::numeric_limits<int>::max());
    int *row = scratch.rows.data() + static_cast<std::size_t>(slot) * devices;
    for (const DeviceId r : placement.replicasOf(expert))
        topo.minHopsFrom(r, row);
    return row;
}

/**
 * True when cold candidate @p d beats the current choice @p best
 * (candidates arrive in ascending id, so ties keep the lower id).
 * Greedy (@p nearest null): strictly colder. Topology-aware: strictly
 * nearer to an existing replica, then strictly colder.
 */
bool
preferDst(const int *nearest, const std::vector<double> &heats, DeviceId d,
          DeviceId best)
{
    const double heat = heats[static_cast<std::size_t>(d)];
    const double bestHeat = heats[static_cast<std::size_t>(best)];
    if (nearest == nullptr)
        return heat < bestHeat;
    const int hops = nearest[static_cast<std::size_t>(d)];
    const int bestHops = nearest[static_cast<std::size_t>(best)];
    return hops < bestHops || (hops == bestHops && heat < bestHeat);
}

/**
 * Replica in [first, last) (ascending ids) the weights are copied
 * from: greedy (@p topo null) takes the first, topology-aware the first
 * strictly nearest to @p dst.
 */
DeviceId
copySource(const Topology *topo, const DeviceId *first,
           const DeviceId *last, DeviceId dst)
{
    DeviceId best = *first;
    if (topo == nullptr)
        return best;
    int bestHops = std::numeric_limits<int>::max();
    for (const DeviceId *r = first; r != last; ++r) {
        const int h = topo->hops(*r, dst);
        if (h < bestHops) {
            bestHops = h;
            best = *r;
        }
    }
    return best;
}

/**
 * Algorithm 1's core loop: repeatedly replicate the most loaded expert
 * of the hottest device onto a colder device until no improvement is
 * possible. Topology-aware when @p topo is given, greedy otherwise.
 * Leaves the (expert, dst) additions, in order, in scratch.added.
 */
void
replicationLoop(const std::vector<double> &loads,
                ExpertPlacement &placement, const Topology *topo,
                PlanScratch &scratch)
{
    MOE_ASSERT(topo == nullptr ||
                   placement.numDevices() <= topo->numDevices(),
               "placement spans devices the topology lacks");
    scratch.added.clear();
    scratch.rowOf.assign(static_cast<std::size_t>(placement.numExperts()),
                         -1);
    scratch.rows.clear();
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
        // the candidate keeps the global peak strictly decreasing. The
        // destination is chosen during the same ascending scan; the
        // heat test runs first because it rejects most devices before
        // the slot and residency lookups.
        const double newShare = loads[static_cast<std::size_t>(
                                    srcExpert)] /
            (placement.numReplicas(srcExpert) + 1);
        const double peak = heats[static_cast<std::size_t>(hottest)];
        int *nearest = topo == nullptr
            ? nullptr
            : nearestRow(scratch, *topo, placement, srcExpert);
        DeviceId dst = -1;
        for (DeviceId d = 0; d < placement.numDevices(); ++d) {
            if (!(heats[static_cast<std::size_t>(d)] + newShare < peak) ||
                d == hottest || placement.freeSlots(d) <= 0 ||
                placement.hosts(d, srcExpert)) {
                continue;
            }
            if (dst < 0 || preferDst(nearest, heats, d, dst))
                dst = d;
        }
        if (dst < 0)
            break; // line 6: no capable destination remains

        placement.addReplica(srcExpert, dst);
        if (nearest != nullptr)
            topo->minHopsFrom(dst, nearest);
        scratch.added.emplace_back(srcExpert, dst);
    }
    placement.clearExpertLoads();
}

/**
 * Shared rebalance driver: rebuild the target from native, run the
 * loop, and diff against the previous replica set to derive the weight
 * copies actually required.
 */
std::vector<MigrationStep>
rebalanceWith(const std::vector<double> &loads, ExpertPlacement &placement,
              const Topology *topo, PlanScratch &scratch)
{
    // Snapshot the replicas present before re-planning, ascending per
    // expert: copies to a device that already held the expert are
    // free, and copy sources must hold the weights *now*.
    const int experts = placement.numExperts();
    std::vector<std::size_t> &begin = scratch.beforeBegin;
    std::vector<DeviceId> &held = scratch.beforeDevices;
    begin.resize(static_cast<std::size_t>(experts) + 1);
    held.clear();
    for (int e = 0; e < experts; ++e) {
        const std::size_t first = held.size();
        begin[static_cast<std::size_t>(e)] = first;
        const auto &replicas = placement.replicasOf(e);
        held.insert(held.end(), replicas.begin(), replicas.end());
        std::sort(held.begin() + static_cast<std::ptrdiff_t>(first),
                  held.end());
    }
    begin[static_cast<std::size_t>(experts)] = held.size();

    placement.resetToNative();
    replicationLoop(loads, placement, topo, scratch);

    std::vector<MigrationStep> steps;
    for (const auto &[expert, dst] : scratch.added) {
        const DeviceId *first =
            held.data() + begin[static_cast<std::size_t>(expert)];
        const DeviceId *last =
            held.data() + begin[static_cast<std::size_t>(expert) + 1];
        if (std::binary_search(first, last, dst))
            continue;
        MOE_ASSERT(first != last, "expert with no prior replica");
        steps.push_back(
            MigrationStep{expert, copySource(topo, first, last, dst), dst});
    }
    return steps;
}

} // namespace

std::vector<MigrationStep>
GreedyBalancer::rebalance(const std::vector<double> &expertLoads,
                          ExpertPlacement &placement)
{
    return rebalanceWith(expertLoads, placement, nullptr, scratch_);
}

TopologyAwareBalancer::TopologyAwareBalancer(const Topology &topo)
    : topo_(topo)
{
}

std::vector<MigrationStep>
TopologyAwareBalancer::rebalance(const std::vector<double> &expertLoads,
                                 ExpertPlacement &placement)
{
    return rebalanceWith(expertLoads, placement, &topo_, scratch_);
}

} // namespace moentwine
