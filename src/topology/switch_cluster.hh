/**
 * @file
 * Switch-based GPU-cluster topologies used as baselines: multi-node DGX
 * systems (NVSwitch inside a node, InfiniBand between nodes) and the
 * NVL72 supernode (one unified scale-up switch fabric).
 *
 * Devices attach to their node switch through an uplink/downlink pair
 * whose bandwidth is the device's scale-up injection bandwidth (NVLink).
 * Node switches attach to a spine through links whose bandwidth is the
 * node's aggregate inter-node bandwidth (IB NICs). Congestion therefore
 * appears exactly where it does on real clusters: on the node↔spine
 * links when cross-node all-to-all volume exceeds IB capacity.
 *
 * NVL72 is the single-node special case: every device hangs off one
 * switch at full NVLink bandwidth, so all traffic is "intra-node".
 */

#ifndef MOENTWINE_TOPOLOGY_SWITCH_CLUSTER_HH
#define MOENTWINE_TOPOLOGY_SWITCH_CLUSTER_HH

#include <string>
#include <vector>

#include "topology/topology.hh"

namespace moentwine {

/** Configuration of a switch-based cluster. */
struct SwitchClusterSpec
{
    /** Number of nodes (1 for NVL72-style supernodes). */
    int numNodes = 4;
    /** Compute devices per node. */
    int devicesPerNode = 8;
    /** Per-direction device↔node-switch bandwidth (NVLink, B/s). */
    double intraBandwidth = 0.9e12;
    /** Per-traversal latency of an intra-node link (s). */
    double intraLatency = 300e-9;
    /** Per-direction node-switch↔spine bandwidth per node (IB, B/s). */
    double interBandwidth = 0.1e12;
    /** Per-traversal latency of an inter-node link (s). */
    double interLatency = 3e-6;
    /** Name prefix for bench output. */
    std::string label = "DGX";
};

/**
 * Cluster of devices behind per-node switches and an optional spine.
 */
class SwitchClusterTopology : public Topology
{
  public:
    explicit SwitchClusterTopology(const SwitchClusterSpec &spec);

    /** Factory: n-node DGX-B200 cluster with default link parameters. */
    static SwitchClusterTopology dgx(int nodes);

    /** Factory: NVL72 supernode (72 devices, one switch domain). */
    static SwitchClusterTopology nvl72();

    int numDevices() const override
    {
        return spec_.numNodes * spec_.devicesPerNode;
    }

    int numNodes() const override { return totalNodes_; }

    /**
     * Up/over/down: a device climbs to its node switch, a switch
     * descends to a local destination or climbs to the spine, and the
     * spine descends to the destination's node switch.
     */
    LinkId nextHop(NodeId node, DeviceId dst) const override;

    std::string name() const override;

    /** Node index hosting a device. */
    int nodeOf(DeviceId d) const;

    /** True when the two devices share a node (same NVSwitch domain). */
    bool sameNode(DeviceId a, DeviceId b) const
    {
        return nodeOf(a) == nodeOf(b);
    }

    /** The specification this cluster was built from. */
    const SwitchClusterSpec &spec() const { return spec_; }

  private:
    /** Internal node id of the switch serving node @p node. */
    NodeId switchOf(int node) const;

    /** Internal node id of the spine (only when numNodes > 1). */
    NodeId spine() const;

    SwitchClusterSpec spec_;
    int totalNodes_;
    // Per device: its link up to / down from its node switch. Per node
    // (multi-node only): its switch's link up to / down from the spine.
    std::vector<LinkId> deviceUp_;
    std::vector<LinkId> deviceDown_;
    std::vector<LinkId> switchUp_;
    std::vector<LinkId> switchDown_;
};

} // namespace moentwine

#endif // MOENTWINE_TOPOLOGY_SWITCH_CLUSTER_HH
