#include "topology/switch_cluster.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace moentwine {

SwitchClusterTopology::SwitchClusterTopology(const SwitchClusterSpec &spec)
    : spec_(spec)
{
    MOE_ASSERT(spec.numNodes > 0, "cluster needs at least one node");
    MOE_ASSERT(spec.devicesPerNode > 0, "node needs at least one device");

    const int devices = numDevices();
    const bool multiNode = spec.numNodes > 1;
    totalNodes_ = devices + spec.numNodes + (multiNode ? 1 : 0);

    // Device ↔ node-switch links.
    for (DeviceId d = 0; d < devices; ++d) {
        const NodeId sw = switchOf(nodeOf(d));
        deviceUp_.push_back(
            addLink(d, sw, spec.intraBandwidth, spec.intraLatency));
        deviceDown_.push_back(
            addLink(sw, d, spec.intraBandwidth, spec.intraLatency));
    }

    // Node-switch ↔ spine links (aggregate IB bandwidth per node).
    if (multiNode) {
        for (int n = 0; n < spec.numNodes; ++n) {
            switchUp_.push_back(addLink(switchOf(n), spine(),
                                        spec.interBandwidth,
                                        spec.interLatency));
            switchDown_.push_back(addLink(spine(), switchOf(n),
                                          spec.interBandwidth,
                                          spec.interLatency));
        }
    }
}

SwitchClusterTopology
SwitchClusterTopology::dgx(int nodes)
{
    SwitchClusterSpec spec;
    spec.numNodes = nodes;
    spec.devicesPerNode = 8;
    // NVLink5: 1.8 TB/s bidirectional per GPU → 0.9 TB/s per direction.
    spec.intraBandwidth = 0.9 * units::TB;
    spec.intraLatency = 350 * units::NANO;
    // 8 × 400 Gb/s ConnectX per node → 400 GB/s aggregate per direction.
    spec.interBandwidth = 0.4 * units::TB;
    // NIC + switch traversal per fabric segment.
    spec.interLatency = 1.2 * units::MICRO;
    spec.label = "DGX";
    return SwitchClusterTopology(spec);
}

SwitchClusterTopology
SwitchClusterTopology::nvl72()
{
    SwitchClusterSpec spec;
    spec.numNodes = 1;
    spec.devicesPerNode = 72;
    spec.intraBandwidth = 0.9 * units::TB;
    spec.intraLatency = 300 * units::NANO;
    spec.label = "NVL72";
    return SwitchClusterTopology(spec);
}

LinkId
SwitchClusterTopology::nextHop(NodeId node, DeviceId dst) const
{
    if (node == dst)
        return -1;
    const int dstNode = nodeOf(dst);
    if (node < numDevices())
        return deviceUp_[static_cast<std::size_t>(node)];
    if (spec_.numNodes > 1 && node == spine())
        return switchDown_[static_cast<std::size_t>(dstNode)];
    const int atNode = node - numDevices();
    return atNode == dstNode ? deviceDown_[static_cast<std::size_t>(dst)]
                             : switchUp_[static_cast<std::size_t>(atNode)];
}

std::string
SwitchClusterTopology::name() const
{
    if (spec_.numNodes == 1)
        return spec_.label;
    return std::to_string(spec_.numNodes) + "-node " + spec_.label + " (" +
           std::to_string(numDevices()) + " GPUs)";
}

int
SwitchClusterTopology::nodeOf(DeviceId d) const
{
    MOE_ASSERT(d >= 0 && d < numDevices(), "nodeOf: bad device");
    return d / spec_.devicesPerNode;
}

NodeId
SwitchClusterTopology::switchOf(int node) const
{
    MOE_ASSERT(node >= 0 && node < spec_.numNodes, "bad node index");
    return numDevices() + node;
}

NodeId
SwitchClusterTopology::spine() const
{
    MOE_ASSERT(spec_.numNodes > 1, "single-node cluster has no spine");
    return numDevices() + spec_.numNodes;
}

} // namespace moentwine
