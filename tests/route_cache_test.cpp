/**
 * @file
 * Equivalence tests for the all-pairs route cache: cached walks and
 * per-pair scalars must match routes freshly walked from nextHop() for
 * every device pair, on mesh, switch-cluster and rerouted fault
 * topologies, with the cache enabled and with the no-cache test hook
 * engaged (which must not allocate either).
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_topology.hh"
#include "network/traffic.hh"
#include "topology/mesh.hh"
#include "topology/switch_cluster.hh"

// Counting global allocator (g_allocCount) for the allocation-free
// hot-path assertions.
#include "alloc_counter.hh"

using namespace moentwine;

namespace {

/** The links walk(s, d) yields, in path order. */
std::vector<LinkId>
walked(const Topology &topo, DeviceId s, DeviceId d)
{
    std::vector<LinkId> out;
    for (const LinkId l : topo.walk(s, d))
        out.push_back(l);
    return out;
}

/** Assert cached walks/scalars equal fresh computeRoute() walks. */
void
expectCacheMatchesFresh(const Topology &topo)
{
    const int devices = topo.numDevices();
    const auto &links = topo.links();
    for (DeviceId s = 0; s < devices; ++s) {
        for (DeviceId d = 0; d < devices; ++d) {
            const auto fresh = topo.computeRoute(s, d);
            const auto cached = walked(topo, s, d);
            ASSERT_EQ(cached.size(), fresh.size())
                << "pair " << s << "->" << d;
            double lat = 0.0;
            double invBw = 0.0;
            for (std::size_t i = 0; i < fresh.size(); ++i) {
                const Link &link = links[std::size_t(fresh[i])];
                EXPECT_EQ(cached[i], fresh[i])
                    << "pair " << s << "->" << d << " hop " << i;
                EXPECT_EQ(links[std::size_t(cached[i])].bandwidth,
                          link.bandwidth);
                lat += link.latency;
                invBw += 1.0 / link.bandwidth;
            }
            EXPECT_EQ(topo.hops(s, d), static_cast<int>(fresh.size()));
            EXPECT_DOUBLE_EQ(topo.pathLatency(s, d), lat);
            EXPECT_DOUBLE_EQ(topo.pathInvBandwidthSum(s, d), invBw);
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

TEST(RouteCache, FailedLinkRerouteAllPairsMatch)
{
    // A failed link reroutes some pairs around it (nothing isolated):
    // the storages are filled from the reroute trees' nextHop().
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    FaultTopology ft(mesh);
    ft.failLink(mesh.linkBetween(5, 6));
    ft.rebuildAfterFaults();
    ASSERT_TRUE(ft.isolatedDevices().empty());
    expectCacheMatchesFresh(ft);
}

TEST(RouteCache, DisabledCacheStillAnswersCorrectly)
{
    MeshTopology mesh = MeshTopology::waferRow(2, 3);
    const MeshTopology cached = mesh;
    // Prime the cache, then disable it: queries must fall back to
    // folding nextHop() and answer exactly what the cache did.
    (void)mesh.hops(0, mesh.numDevices() - 1);
    mesh.disableRouteCache();
    expectCacheMatchesFresh(mesh);
    for (DeviceId s = 0; s < mesh.numDevices(); ++s) {
        for (DeviceId d = 0; d < mesh.numDevices(); ++d) {
            EXPECT_EQ(mesh.hops(s, d), cached.hops(s, d));
            EXPECT_EQ(mesh.pathLatency(s, d), cached.pathLatency(s, d));
            EXPECT_EQ(mesh.pathInvBandwidthSum(s, d),
                      cached.pathInvBandwidthSum(s, d));
        }
    }
}

TEST(RouteCache, UncachedScalarQueriesDoNotAllocate)
{
    MeshTopology mesh = MeshTopology::waferRow(2, 4);
    mesh.disableRouteCache();
    const int devices = mesh.numDevices();
    std::vector<int> nearest(static_cast<std::size_t>(devices), devices);

    const std::size_t before = g_allocCount.load();
    double sink = 0.0;
    for (DeviceId s = 0; s < devices; ++s) {
        for (DeviceId d = 0; d < devices; ++d) {
            sink += mesh.hops(s, d) + mesh.pathLatency(s, d) +
                mesh.pathInvBandwidthSum(s, d);
        }
        mesh.minHopsFrom(s, nearest.data());
    }
    EXPECT_EQ(g_allocCount.load(), before)
        << "uncached scalar queries must not allocate";
    EXPECT_GT(sink, 0.0);
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

TEST(RouteCache, WalkerIsStableAcrossQueries)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    // A walker over the arena must stay valid while other pairs are
    // queried.
    PathWalker first = mesh.walk(0, 15);
    for (DeviceId s = 0; s < mesh.numDevices(); ++s)
        for (DeviceId d = 0; d < mesh.numDevices(); ++d)
            (void)walked(mesh, s, d);
    std::vector<LinkId> firstLinks;
    for (const LinkId l : first)
        firstLinks.push_back(l);
    EXPECT_EQ(firstLinks, mesh.computeRoute(0, 15));
}
