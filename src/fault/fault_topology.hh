/**
 * @file
 * Degraded topology overlay: the base topology with fault-plan link
 * state applied and routes recomputed around failed links.
 *
 * The overlay copies the base link set (same link ids, so per-link
 * traffic buffers sized off links().size() stay valid) and mutates
 * bandwidths in place: a degraded link runs at bwFactor × nameplate, a
 * failed link at a vanishingly small epsilon so any accidental use
 * explodes a timing instead of passing silently. Routing:
 *
 *  - With no failed links, nextHop() delegates to the base topology,
 *    so a degrade-only overlay reproduces the base paths exactly (the
 *    rebuilt scalar tables differ only where bandwidth changed).
 *  - With failed links, nextHop() reads per-destination min-hop trees
 *    built over the live links (reverse BFS from each destination;
 *    ties broken by ascending link id). Every route storage is filled
 *    from nextHop(), so the overlay reuses the RouteStorageKind
 *    machinery unchanged. A pair with no live path has no next hop:
 *    an empty route with hops() == 0, reported via
 *    reachable()/isolatedDevices(); walking it under the next-hop
 *    storage trips the PathWalker's loud no-next-hop assertion rather
 *    than mis-routing.
 *
 * Devices cut off from the largest mutually-reachable component
 * (smallest lowest-member tie-break) are reported as isolated; the
 * FaultInjector treats them as lost.
 */

#ifndef MOENTWINE_FAULT_FAULT_TOPOLOGY_HH
#define MOENTWINE_FAULT_FAULT_TOPOLOGY_HH

#include <string>
#include <vector>

#include "topology/topology.hh"

namespace moentwine {

class FaultTopology : public Topology
{
  public:
    /**
     * Effective bandwidth of a failed link. Small enough that any
     * timing accidentally charged over it is absurd (and any idle-link
     * budget is zero), non-zero so 1/bandwidth stays finite.
     */
    static constexpr double kFailedLinkBandwidth = 1e-30;

    /**
     * Build an overlay of @p base. The base must outlive the overlay;
     * its links are copied in id order so LinkIds coincide, and the
     * base's route-storage policy is inherited.
     */
    explicit FaultTopology(const Topology &base);

    int numDevices() const override { return devices_; }
    int numNodes() const override { return nodes_; }
    std::string name() const override;

    /** base's nextHop() fault-free, else the live reroute tree's. */
    LinkId nextHop(NodeId node, DeviceId dst) const override;

    /** Run the link at factor × nameplate (replaces prior degrade). */
    void degradeLink(LinkId link, double bwFactor);

    /** Take the link out of service; routes will avoid it. */
    void failLink(LinkId link);

    /** Clear both a degrade and a failure; back to nameplate. */
    void restoreLink(LinkId link);

    /** True while the link is failed. */
    bool linkFailed(LinkId link) const
    {
        return failed_[static_cast<std::size_t>(link)] != 0;
    }

    /** Number of currently failed links. */
    int failedLinkCount() const { return failedLinkCount_; }

    /**
     * Recompute routes after a batch of link mutations: drops the
     * built route storage and, when failures are present, rebuilds the
     * per-destination reroute trees and the isolation report. Call
     * once per fault boundary, after all of that boundary's link
     * events (FaultInjector does).
     */
    void rebuildAfterFaults();

    /** True when a live path src → dst exists (always, fault-free). */
    bool reachable(DeviceId src, DeviceId dst) const;

    /**
     * Devices outside the largest mutually-reachable component
     * (ascending id). Empty while no link is failed.
     */
    const std::vector<DeviceId> &isolatedDevices() const
    {
        return isolated_;
    }

  private:
    void applyBandwidth(LinkId link);
    void buildRerouteTrees();

    const Topology *base_;
    int devices_;
    int nodes_;
    std::vector<double> nameplate_;
    std::vector<double> degradeFactor_;
    std::vector<char> failed_;
    int failedLinkCount_ = 0;

    // Reroute state, valid only while failedLinkCount_ > 0: for each
    // (node, dst device), the first link of the min-hop live path, or
    // -1 when none exists.
    std::vector<LinkId> towardDst_;
    std::vector<DeviceId> isolated_;
};

} // namespace moentwine

#endif // MOENTWINE_FAULT_FAULT_TOPOLOGY_HH
