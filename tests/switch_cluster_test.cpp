/**
 * @file
 * Unit tests for the switch-based GPU-cluster topologies (DGX, NVL72).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/units.hh"
#include "topology/switch_cluster.hh"

using namespace moentwine;

namespace {

/** Bandwidths of the links along walk(src, dst), in path order. */
std::vector<double>
walkBandwidths(const Topology &topo, DeviceId src, DeviceId dst)
{
    std::vector<double> bws;
    for (const LinkId l : topo.walk(src, dst))
        bws.push_back(topo.links()[std::size_t(l)].bandwidth);
    return bws;
}

} // namespace

TEST(SwitchCluster, DgxDeviceCount)
{
    const auto dgx = SwitchClusterTopology::dgx(4);
    EXPECT_EQ(dgx.numDevices(), 32);
    // 32 devices + 4 node switches + 1 spine.
    EXPECT_EQ(dgx.numNodes(), 37);
}

TEST(SwitchCluster, Nvl72DeviceCount)
{
    const auto nvl = SwitchClusterTopology::nvl72();
    EXPECT_EQ(nvl.numDevices(), 72);
    // 72 devices + 1 switch, no spine.
    EXPECT_EQ(nvl.numNodes(), 73);
}

TEST(SwitchCluster, NodeOfPartition)
{
    const auto dgx = SwitchClusterTopology::dgx(2);
    EXPECT_EQ(dgx.nodeOf(0), 0);
    EXPECT_EQ(dgx.nodeOf(7), 0);
    EXPECT_EQ(dgx.nodeOf(8), 1);
    EXPECT_EQ(dgx.nodeOf(15), 1);
}

TEST(SwitchCluster, SameNodePredicate)
{
    const auto dgx = SwitchClusterTopology::dgx(2);
    EXPECT_TRUE(dgx.sameNode(0, 7));
    EXPECT_FALSE(dgx.sameNode(7, 8));
}

TEST(SwitchCluster, IntraNodeRouteIsTwoHops)
{
    const auto dgx = SwitchClusterTopology::dgx(2);
    EXPECT_EQ(dgx.hops(0, 1), 2); // device → switch → device
}

TEST(SwitchCluster, InterNodeRouteIsFourHops)
{
    const auto dgx = SwitchClusterTopology::dgx(2);
    EXPECT_EQ(dgx.hops(0, 8), 4); // device → sw → spine → sw → device
}

TEST(SwitchCluster, SelfRouteIsEmpty)
{
    const auto dgx = SwitchClusterTopology::dgx(2);
    EXPECT_EQ(dgx.hops(3, 3), 0);
}

TEST(SwitchCluster, RouteIsConnected)
{
    const auto dgx = SwitchClusterTopology::dgx(3);
    for (DeviceId a = 0; a < dgx.numDevices(); a += 5) {
        for (DeviceId b = 0; b < dgx.numDevices(); b += 7) {
            NodeId cur = a;
            for (const LinkId l : dgx.walk(a, b)) {
                const Link &link = dgx.links()[std::size_t(l)];
                EXPECT_EQ(link.src, cur);
                cur = link.dst;
            }
            EXPECT_EQ(cur, b);
        }
    }
}

TEST(SwitchCluster, Nvl72AlwaysTwoHops)
{
    const auto nvl = SwitchClusterTopology::nvl72();
    for (DeviceId a = 0; a < nvl.numDevices(); a += 9) {
        for (DeviceId b = 0; b < nvl.numDevices(); b += 11) {
            if (a != b) {
                EXPECT_EQ(nvl.hops(a, b), 2);
            }
        }
    }
}

TEST(SwitchCluster, InterNodePathIsSlower)
{
    const auto dgx = SwitchClusterTopology::dgx(2);
    const auto inter = walkBandwidths(dgx, 0, 8);
    const auto intra = walkBandwidths(dgx, 0, 1);
    EXPECT_LT(*std::min_element(inter.begin(), inter.end()),
              *std::min_element(intra.begin(), intra.end()));
    EXPECT_GT(dgx.pathLatency(0, 8), dgx.pathLatency(0, 1));
}

TEST(SwitchCluster, IntraBandwidthMatchesNvlink)
{
    const auto dgx = SwitchClusterTopology::dgx(1);
    // device → switch → device, both NVLink.
    EXPECT_EQ(walkBandwidths(dgx, 0, 1),
              std::vector<double>(2, 0.9 * units::TB));
}

TEST(SwitchCluster, InterBandwidthMatchesIb)
{
    const auto dgx = SwitchClusterTopology::dgx(2);
    // NVLink up, IB to and from the spine, NVLink down.
    EXPECT_EQ(walkBandwidths(dgx, 0, 8),
              (std::vector<double>{0.9 * units::TB, 0.4 * units::TB,
                                   0.4 * units::TB, 0.9 * units::TB}));
}

TEST(SwitchCluster, Names)
{
    EXPECT_EQ(SwitchClusterTopology::nvl72().name(), "NVL72");
    EXPECT_EQ(SwitchClusterTopology::dgx(4).name(),
              "4-node DGX (32 GPUs)");
}

TEST(SwitchCluster, SingleNodeHasNoSpineLinks)
{
    const auto nvl = SwitchClusterTopology::nvl72();
    // 72 devices × 2 directions, nothing else.
    EXPECT_EQ(nvl.links().size(), std::size_t(144));
}

TEST(SwitchCluster, MultiNodeLinkCount)
{
    const auto dgx = SwitchClusterTopology::dgx(4);
    // 32 devices × 2 + 4 node switches × 2.
    EXPECT_EQ(dgx.links().size(), std::size_t(64 + 8));
}
