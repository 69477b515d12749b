/**
 * @file
 * Equivalence tests for the all-pairs route cache: cached PathView
 * routes and per-pair scalars must match freshly computed XY / switch
 * routes for every device pair, on mesh and switch-cluster topologies,
 * with the cache enabled and with the no-cache test hook engaged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "network/traffic.hh"
#include "topology/mesh.hh"
#include "topology/switch_cluster.hh"

// Counting global allocator (g_allocCount) for the allocation-free
// hot-path assertions.
#include "alloc_counter.hh"

using namespace moentwine;

namespace {

/** Assert cached route()/scalars equal fresh computeRoute() walks. */
void
expectCacheMatchesFresh(const Topology &topo)
{
    const int devices = topo.numDevices();
    for (DeviceId s = 0; s < devices; ++s) {
        for (DeviceId d = 0; d < devices; ++d) {
            const auto fresh = topo.computeRoute(s, d);
            const PathView cached = topo.route(s, d);
            ASSERT_EQ(cached.size(), fresh.size())
                << "pair " << s << "->" << d;
            EXPECT_TRUE(std::equal(cached.begin(), cached.end(),
                                   fresh.begin()))
                << "pair " << s << "->" << d;

            EXPECT_EQ(topo.hops(s, d), static_cast<int>(fresh.size()));
            double lat = 0.0;
            double invBw = 0.0;
            double minBw = 0.0;
            for (const LinkId l : fresh) {
                const Link &link = topo.links()[std::size_t(l)];
                lat += link.latency;
                invBw += 1.0 / link.bandwidth;
                minBw = minBw == 0.0 ? link.bandwidth
                                     : std::min(minBw, link.bandwidth);
            }
            EXPECT_DOUBLE_EQ(topo.pathLatency(s, d), lat);
            EXPECT_DOUBLE_EQ(topo.pathInvBandwidthSum(s, d), invBw);
            if (!fresh.empty()) {
                EXPECT_DOUBLE_EQ(topo.pathBandwidth(s, d), minBw);
            }
        }
    }
}

} // namespace

TEST(RouteCache, MeshAllPairsMatchFreshXyRoutes)
{
    const MeshTopology mesh = MeshTopology::singleWafer(5);
    expectCacheMatchesFresh(mesh);
}

TEST(RouteCache, MultiWaferMeshAllPairsMatch)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    expectCacheMatchesFresh(mesh);
}

TEST(RouteCache, SwitchClusterAllPairsMatch)
{
    const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(3);
    expectCacheMatchesFresh(dgx);
}

TEST(RouteCache, DisabledCacheStillAnswersCorrectly)
{
    MeshTopology mesh = MeshTopology::waferRow(2, 3);
    // Prime the cache, then disable it: queries must fall back to
    // fresh derivation and stay correct.
    (void)mesh.route(0, mesh.numDevices() - 1);
    mesh.disableRouteCache();
    for (DeviceId s = 0; s < mesh.numDevices(); ++s) {
        for (DeviceId d = 0; d < mesh.numDevices(); ++d) {
            const auto fresh = mesh.computeRoute(s, d);
            const PathView uncached = mesh.route(s, d);
            ASSERT_EQ(uncached.size(), fresh.size());
            EXPECT_TRUE(std::equal(uncached.begin(), uncached.end(),
                                   fresh.begin()));
            EXPECT_EQ(mesh.hops(s, d), static_cast<int>(fresh.size()));
        }
    }
}

TEST(RouteCache, FlowTimeMatchesManualEquationOne)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const double bytes = 3e6;
    for (DeviceId s = 0; s < mesh.numDevices(); ++s) {
        for (DeviceId d = 0; d < mesh.numDevices(); ++d) {
            double manual = 0.0;
            for (const LinkId l : mesh.computeRoute(s, d)) {
                const Link &link = mesh.links()[std::size_t(l)];
                manual += bytes / link.bandwidth + link.latency;
            }
            EXPECT_NEAR(flowTime(mesh, s, d, bytes), manual,
                        1e-12 + 1e-9 * manual);
        }
    }
}

TEST(RouteCache, LinkBetweenMatchesLinearScan)
{
    const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(2);
    const auto &links = dgx.links();
    for (NodeId a = 0; a < dgx.numNodes(); ++a) {
        for (NodeId b = 0; b < dgx.numNodes(); ++b) {
            LinkId expect = -1;
            for (std::size_t l = 0; l < links.size(); ++l) {
                if (links[l].src == a && links[l].dst == b) {
                    expect = static_cast<LinkId>(l);
                    break;
                }
            }
            EXPECT_EQ(dgx.linkBetween(a, b), expect)
                << "pair " << a << "->" << b;
        }
    }
}

TEST(RouteCache, AddFlowIsAllocationFreeOnCachedPath)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    PhaseTraffic traffic(mesh);
    // Warm up: the first query builds the all-pairs route table.
    traffic.addFlow(0, mesh.numDevices() - 1, 64.0);

    const std::size_t before = g_allocCount.load();
    for (DeviceId s = 0; s < mesh.numDevices(); ++s)
        for (DeviceId d = 0; d < mesh.numDevices(); ++d)
            traffic.addFlow(s, d, 128.0);
    EXPECT_EQ(g_allocCount.load(), before)
        << "cached addFlow must not allocate";
}

TEST(RouteCache, PathViewIsStableAcrossQueries)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    // Arena-backed views must stay valid while other pairs are queried.
    const PathView first = mesh.route(0, 15);
    const auto firstCopy =
        std::vector<LinkId>(first.begin(), first.end());
    for (DeviceId s = 0; s < mesh.numDevices(); ++s)
        for (DeviceId d = 0; d < mesh.numDevices(); ++d)
            (void)mesh.route(s, d);
    EXPECT_TRUE(std::equal(first.begin(), first.end(),
                           firstCopy.begin()));
}
