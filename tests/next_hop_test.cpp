/**
 * @file
 * Equivalence tests for the compressed next-hop route storage:
 *  - property: PathWalker walks under the next-hop table reconstruct
 *    the CSR-arena routes link by link on mesh, switch-cluster and
 *    rerouted fault topologies, and the per-pair scalars are bitwise
 *    identical;
 *  - regression: one fig-style cell (comm eval + engine run) produces
 *    bitwise identical numbers under both storages;
 *  - policy: Auto selects the arena below the device threshold and the
 *    compressed matrix at or above it;
 *  - footprint: the compressed storage is strictly smaller and the
 *    addFlow hot path stays allocation-free under it;
 *  - limits: build() aborts on topologies whose link or node ids do
 *    not fit the 16-bit packed entries, and on a nextHop() that
 *    cycles;
 *  - cut-off pairs: a device isolated by faults reports 0 hops under
 *    every storage and uncached;
 *  - path latency: addFlow's maxPathLatency() equals the walk-summed
 *    link latency bitwise under both storages.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/moentwine.hh"
#include "fault/fault_topology.hh"

// Counting global allocator (g_allocCount) for the allocation-free
// hot-path assertions.
#include "alloc_counter.hh"

using namespace moentwine;

namespace {

/**
 * Assert that @p nh (forced next-hop storage) reproduces @p csr
 * (forced CSR storage) exactly: link-by-link walks and bitwise-equal
 * per-pair scalars for every device pair.
 */
void
expectStoragesEquivalent(const Topology &csr, const Topology &nh)
{
    ASSERT_EQ(csr.numDevices(), nh.numDevices());
    nh.finalizeRoutes();
    ASSERT_TRUE(nh.usingNextHopRoutes());
    csr.finalizeRoutes();
    ASSERT_FALSE(csr.usingNextHopRoutes());
    const int devices = csr.numDevices();
    for (DeviceId s = 0; s < devices; ++s) {
        for (DeviceId d = 0; d < devices; ++d) {
            std::vector<LinkId> arena;
            for (const LinkId l : csr.walk(s, d))
                arena.push_back(l);
            std::size_t i = 0;
            for (const LinkId l : nh.walk(s, d)) {
                ASSERT_LT(i, arena.size()) << "pair " << s << "->" << d;
                EXPECT_EQ(l, arena[i]) << "pair " << s << "->" << d
                                       << " hop " << i;
                EXPECT_EQ(nh.links()[std::size_t(l)].bandwidth,
                          csr.links()[std::size_t(arena[i])].bandwidth);
                ++i;
            }
            EXPECT_EQ(i, arena.size()) << "pair " << s << "->" << d;

            EXPECT_EQ(nh.hops(s, d), csr.hops(s, d));
            // Bitwise equality, not EXPECT_DOUBLE_EQ: both storages
            // accumulate the scalars in path order, so the doubles
            // must be identical, which is what makes the
            // representations interchangeable mid-figure.
            EXPECT_EQ(nh.pathLatency(s, d), csr.pathLatency(s, d));
            EXPECT_EQ(nh.pathInvBandwidthSum(s, d),
                      csr.pathInvBandwidthSum(s, d));
        }
    }
}

} // namespace

TEST(NextHop, MeshWalksReconstructCsrRoutes)
{
    MeshTopology csr = MeshTopology::waferRow(2, 4);
    csr.setRouteStorage(RouteStorageKind::CsrArena);
    MeshTopology nh = MeshTopology::waferRow(2, 4);
    nh.setRouteStorage(RouteStorageKind::NextHop);
    expectStoragesEquivalent(csr, nh);
}

TEST(NextHop, SingleWaferMeshWalksReconstructCsrRoutes)
{
    MeshTopology csr = MeshTopology::singleWafer(5);
    csr.setRouteStorage(RouteStorageKind::CsrArena);
    MeshTopology nh = MeshTopology::singleWafer(5);
    nh.setRouteStorage(RouteStorageKind::NextHop);
    expectStoragesEquivalent(csr, nh);
}

TEST(NextHop, SwitchClusterWalksReconstructCsrRoutes)
{
    SwitchClusterTopology csr = SwitchClusterTopology::dgx(3);
    csr.setRouteStorage(RouteStorageKind::CsrArena);
    SwitchClusterTopology nh = SwitchClusterTopology::dgx(3);
    nh.setRouteStorage(RouteStorageKind::NextHop);
    expectStoragesEquivalent(csr, nh);
}

TEST(NextHop, FailedLinkRerouteWalksReconstructCsrRoutes)
{
    // Failed links force the reroute trees (nothing is isolated); both
    // storages must tabulate the same rerouted nextHop().
    const MeshTopology base = MeshTopology::waferRow(2, 4);
    FaultTopology csr(base);
    csr.setRouteStorage(RouteStorageKind::CsrArena);
    FaultTopology nh(base);
    nh.setRouteStorage(RouteStorageKind::NextHop);
    for (FaultTopology *ft : {&csr, &nh}) {
        ft->failLink(base.linkBetween(5, 6));
        ft->failLink(base.linkBetween(9, 17));
        ft->degradeLink(base.linkBetween(2, 3), 0.5);
        ft->rebuildAfterFaults();
        ASSERT_TRUE(ft->isolatedDevices().empty());
    }
    expectStoragesEquivalent(csr, nh);
}

TEST(NextHop, CutOffPairReportsZeroHopsInEveryMode)
{
    // Device 5 loses both outgoing and incoming links to its
    // neighbours: no route leaves or reaches it.
    const MeshTopology base = MeshTopology::singleWafer(4);
    for (const int mode : {0, 1, 2}) {
        SCOPED_TRACE(mode == 0 ? "csr" : mode == 1 ? "next-hop"
                                                   : "uncached");
        FaultTopology ft(base);
        if (mode == 0)
            ft.setRouteStorage(RouteStorageKind::CsrArena);
        else if (mode == 1)
            ft.setRouteStorage(RouteStorageKind::NextHop);
        else
            ft.disableRouteCache();
        for (const DeviceId n : {1, 4, 6, 9}) {
            ft.failLink(base.linkBetween(5, n));
            ft.failLink(base.linkBetween(n, 5));
        }
        ft.rebuildAfterFaults();
        ASSERT_FALSE(ft.reachable(5, 0));
        EXPECT_EQ(ft.hops(5, 0), 0);
        EXPECT_EQ(ft.hops(0, 5), 0);
        EXPECT_EQ(ft.pathLatency(5, 0), 0.0);
        EXPECT_TRUE(ft.computeRoute(0, 5).empty());
        EXPECT_EQ(ft.usingNextHopRoutes(), mode == 1);
        // The rest of the wafer still routes.
        EXPECT_EQ(ft.hops(0, 15), base.hops(0, 15));
    }
}

TEST(NextHop, WalksMatchFreshComputeRoute)
{
    // The walker against first principles (not just against the CSR
    // arena): next-hop walks must equal freshly derived XY routes.
    MeshTopology mesh = MeshTopology::waferRow(2, 4);
    mesh.setRouteStorage(RouteStorageKind::NextHop);
    for (DeviceId s = 0; s < mesh.numDevices(); ++s) {
        for (DeviceId d = 0; d < mesh.numDevices(); ++d) {
            const auto fresh = mesh.computeRoute(s, d);
            std::size_t i = 0;
            for (const LinkId l : mesh.walk(s, d)) {
                ASSERT_LT(i, fresh.size());
                EXPECT_EQ(l, fresh[i]);
                ++i;
            }
            EXPECT_EQ(i, fresh.size());
        }
    }
}

TEST(NextHop, FigCellBitwiseEquivalentAcrossStorages)
{
    // One fig13d-style cell evaluated under both storages must produce
    // bitwise identical communication times.
    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = 4;
    sc.wafers = 2;
    sc.tp = 4;

    sc.routeStorage = RouteStorageKind::CsrArena;
    const System csrSys = System::make(sc);
    sc.routeStorage = RouteStorageKind::NextHop;
    const System nhSys = System::make(sc);
    EXPECT_FALSE(csrSys.topology().usingNextHopRoutes());
    EXPECT_TRUE(nhSys.topology().usingNextHopRoutes());

    const auto a = evaluateCommunication(csrSys.mapping(), qwen3(), 256,
                                         true);
    const auto b = evaluateCommunication(nhSys.mapping(), qwen3(), 256,
                                         true);
    EXPECT_EQ(a.allReduce, b.allReduce);
    EXPECT_EQ(a.dispatch, b.dispatch);
    EXPECT_EQ(a.combine, b.combine);
}

TEST(NextHop, EngineRunBitwiseEquivalentAcrossStorages)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;

    EngineConfig ec;
    ec.model = qwen3();
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.balancer = BalancerKind::TopologyAware;
    ec.beta = 3;

    sc.routeStorage = RouteStorageKind::CsrArena;
    const System csrSys = System::make(sc);
    sc.routeStorage = RouteStorageKind::NextHop;
    const System nhSys = System::make(sc);

    InferenceEngine csrEngine(csrSys.mapping(), ec);
    InferenceEngine nhEngine(nhSys.mapping(), ec);
    const auto csrStats = csrEngine.run(12);
    const auto nhStats = nhEngine.run(12);
    ASSERT_EQ(csrStats.size(), nhStats.size());
    for (std::size_t i = 0; i < csrStats.size(); ++i) {
        EXPECT_EQ(csrStats[i].layerTime(ec.pipelineStages),
                  nhStats[i].layerTime(ec.pipelineStages))
            << "iteration " << i;
        EXPECT_EQ(csrStats[i].allReduce, nhStats[i].allReduce);
        EXPECT_EQ(csrStats[i].dispatch, nhStats[i].dispatch);
        EXPECT_EQ(csrStats[i].combine, nhStats[i].combine);
    }
}

TEST(NextHop, AutoPolicySelectsByDeviceCount)
{
    // Below the threshold Auto keeps the CSR arena.
    SwitchClusterTopology small = SwitchClusterTopology::dgx(4);
    EXPECT_EQ(small.activeRouteStorage(), RouteStorageKind::CsrArena);
    small.finalizeRoutes();
    EXPECT_FALSE(small.usingNextHopRoutes());

    // At/above the threshold (64 nodes × 8 = 512 devices) Auto builds
    // the compressed matrix; switch routes stay cheap to verify.
    SwitchClusterTopology big = SwitchClusterTopology::dgx(64);
    ASSERT_GE(big.numDevices(), Topology::kNextHopAutoThreshold);
    EXPECT_EQ(big.activeRouteStorage(), RouteStorageKind::NextHop);
    big.finalizeRoutes();
    EXPECT_TRUE(big.usingNextHopRoutes());
    // Spot-check walks on the auto-selected storage.
    for (DeviceId s = 0; s < big.numDevices(); s += 37) {
        for (DeviceId d = 0; d < big.numDevices(); d += 41) {
            const auto fresh = big.computeRoute(s, d);
            std::size_t i = 0;
            for (const LinkId l : big.walk(s, d)) {
                ASSERT_LT(i, fresh.size());
                EXPECT_EQ(l, fresh[i]);
                ++i;
            }
            EXPECT_EQ(i, fresh.size());
        }
    }
}

TEST(NextHop, CompressedStorageIsSmaller)
{
    MeshTopology mesh = MeshTopology::waferRow(2, 8);
    mesh.setRouteStorage(RouteStorageKind::CsrArena);
    const std::size_t csrBytes = mesh.routeStorageBytes();
    mesh.setRouteStorage(RouteStorageKind::NextHop);
    const std::size_t nhBytes = mesh.routeStorageBytes();
    EXPECT_LT(nhBytes, csrBytes);
}

TEST(NextHop, AddFlowIsAllocationFreeUnderNextHopStorage)
{
    MeshTopology mesh = MeshTopology::waferRow(2, 4);
    mesh.setRouteStorage(RouteStorageKind::NextHop);
    PhaseTraffic traffic(mesh);
    // Warm up: the first flow builds the next-hop matrix.
    traffic.addFlow(0, mesh.numDevices() - 1, 64.0);

    const std::size_t before = g_allocCount.load();
    for (DeviceId s = 0; s < mesh.numDevices(); ++s)
        for (DeviceId d = 0; d < mesh.numDevices(); ++d)
            traffic.addFlow(s, d, 128.0);
    EXPECT_EQ(g_allocCount.load(), before)
        << "next-hop addFlow must not allocate";
}

TEST(NextHop, ConcurrentWalksOnSharedTopologyAgree)
{
    // Worker threads share one finalized next-hop topology (the sweep
    // contract); concurrent walks must all reconstruct the XY routes.
    MeshTopology mesh = MeshTopology::waferRow(2, 4);
    mesh.setRouteStorage(RouteStorageKind::NextHop);
    mesh.finalizeRoutes();
    const Topology &shared = mesh;

    std::vector<std::thread> workers;
    std::vector<int> mismatches(4, 0);
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&shared, &mismatches, w]() {
            for (DeviceId s = 0; s < shared.numDevices(); ++s) {
                for (DeviceId d = 0; d < shared.numDevices(); ++d) {
                    const auto fresh = shared.computeRoute(s, d);
                    std::size_t i = 0;
                    for (const LinkId l : shared.walk(s, d)) {
                        if (i >= fresh.size() || l != fresh[i])
                            ++mismatches[static_cast<std::size_t>(w)];
                        ++i;
                    }
                    if (i != fresh.size())
                        ++mismatches[static_cast<std::size_t>(w)];
                }
            }
        });
    }
    for (auto &t : workers)
        t.join();
    for (const int m : mismatches)
        EXPECT_EQ(m, 0);
}

namespace {

/**
 * Synthetic topology for the 16-bit limit: @p devices devices, @p nodes
 * nodes, and @p links links fanned out over distinct (src, dst) node
 * pairs. Routes are never walked: build() must refuse it first.
 */
class WideTopology : public Topology
{
  public:
    WideTopology(int devices, int nodes, int links)
        : devices_(devices), nodes_(nodes)
    {
        for (int i = 0; i < links; ++i)
            addLink(i % nodes, (i / nodes + i % nodes + 1) % nodes, 1.0,
                    0.0);
    }

    int numDevices() const override { return devices_; }
    int numNodes() const override { return nodes_; }
    std::string name() const override { return "wide"; }

    LinkId nextHop(NodeId, DeviceId) const override { return -1; }

  private:
    int devices_;
    int nodes_;
};

/**
 * Two devices behind one switch (node 2) that always sends traffic
 * back down to device 0: toward device 1 the walk 0 → 2 → 0 → ...
 * never arrives, so every route build must abort instead of spinning.
 */
class CyclicTopology : public Topology
{
  public:
    CyclicTopology()
    {
        up_[0] = addLink(0, 2, 1.0, 0.0);
        addLink(2, 0, 1.0, 0.0); // link 1: the switch's only choice
        up_[1] = addLink(1, 2, 1.0, 0.0);
        addLink(2, 1, 1.0, 0.0);
    }

    int numDevices() const override { return 2; }
    int numNodes() const override { return 3; }
    std::string name() const override { return "cyclic"; }

    LinkId nextHop(NodeId node, DeviceId dst) const override
    {
        if (node == dst)
            return -1;
        return node == 2 ? 1 : up_[node];
    }

  private:
    LinkId up_[2] = {-1, -1};
};

/**
 * For every device pair of @p topo, a single addFlow must report the
 * route's latency summed link by link in walk order, bitwise.
 */
void
expectAddFlowLatencyIsWalkSum(const Topology &topo, RouteStorageKind kind)
{
    topo.finalizeRoutes();
    ASSERT_EQ(topo.usingNextHopRoutes(), kind == RouteStorageKind::NextHop);
    PhaseTraffic traffic(topo);
    const auto &links = topo.links();
    for (DeviceId s = 0; s < topo.numDevices(); ++s) {
        for (DeviceId d = 0; d < topo.numDevices(); ++d) {
            double walked = 0.0;
            for (const LinkId l : topo.walk(s, d))
                walked += links[static_cast<std::size_t>(l)].latency;
            traffic.clear();
            traffic.addFlow(s, d, 64.0);
            EXPECT_EQ(traffic.maxPathLatency(), walked)
                << topo.name() << " pair " << s << "->" << d;
        }
    }
}

} // namespace

TEST(NextHopDeathTest, BuildRejectsIdsBeyondSixteenBits)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // 65536 links: link id 65535 would collide with the kNoHop fill.
    WideTopology manyLinks(2, 257, 65536);
    manyLinks.setRouteStorage(RouteStorageKind::NextHop);
    EXPECT_DEATH(manyLinks.finalizeRoutes(),
                 "too many links for 16-bit next-hop entries");

    WideTopology manyNodes(2, 70000, 1);
    manyNodes.setRouteStorage(RouteStorageKind::NextHop);
    EXPECT_DEATH(manyNodes.finalizeRoutes(),
                 "too many nodes for 16-bit next-hop entries");
}

TEST(NextHopDeathTest, CyclicNextHopAbortsEveryBuild)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const RouteStorageKind kind :
         {RouteStorageKind::NextHop, RouteStorageKind::CsrArena}) {
        CyclicTopology topo;
        topo.setRouteStorage(kind);
        EXPECT_DEATH(topo.finalizeRoutes(), "routing cycle");
    }
    CyclicTopology uncached;
    uncached.disableRouteCache();
    EXPECT_EQ(uncached.hops(1, 0), 2); // toward device 0 it arrives
    EXPECT_DEATH((void)uncached.hops(0, 1), "routing cycle");
}

TEST(NextHop, AddFlowPathLatencyIsWalkSumOnEveryTopology)
{
    for (const RouteStorageKind kind :
         {RouteStorageKind::CsrArena, RouteStorageKind::NextHop}) {
        SCOPED_TRACE(kind == RouteStorageKind::NextHop ? "next-hop"
                                                       : "csr");
        // HER multi-wafer mesh: inter-wafer links carry their own
        // latency, so sums mix on- and off-wafer terms.
        MeshTopology her = MeshTopology::waferRow(2, 4);
        her.setRouteStorage(kind);
        expectAddFlowLatencyIsWalkSum(her, kind);

        SwitchClusterTopology cluster = SwitchClusterTopology::dgx(3);
        cluster.setRouteStorage(kind);
        expectAddFlowLatencyIsWalkSum(cluster, kind);

        MeshTopology base = MeshTopology::waferRow(2, 4);
        base.setRouteStorage(kind);
        FaultTopology degraded(base);
        degraded.degradeLink(base.linkBetween(5, 6), 0.25);
        degraded.rebuildAfterFaults();
        expectAddFlowLatencyIsWalkSum(degraded, kind);
    }
}
