/**
 * @file
 * Tests for the parallelism mappings — the paper's core contribution.
 * Covers the Fig. 8/10 worked examples exactly, plus partition and
 * geometry invariants swept over mesh scales and TP shapes.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/moentwine.hh"
#include "mapping/baseline_mapping.hh"
#include "mapping/er_mapping.hh"
#include "mapping/ftd.hh"
#include "mapping/parallelism.hh"
#include "topology/mesh.hh"

using namespace moentwine;

// ------------------------------------------------------ decomposeTp ----

TEST(Parallelism, DecomposePrefersSquare)
{
    const auto p = decomposeTp(4, 4, 4);
    EXPECT_EQ(p.tpX, 2);
    EXPECT_EQ(p.tpY, 2);
    EXPECT_EQ(p.tp(), 4);
}

TEST(Parallelism, DecomposeRespectsDivisibility)
{
    // TP=8 on a 4×4 mesh: 2×4 is the only balanced valid pair.
    const auto p = decomposeTp(8, 4, 4);
    EXPECT_EQ(p.tpX * p.tpY, 8);
    EXPECT_EQ(4 % p.tpX, 0);
    EXPECT_EQ(4 % p.tpY, 0);
}

TEST(Parallelism, DecomposeTp18On6x6)
{
    // The paper's 6×6 TP=18 configuration (Fig. 13(c)).
    const auto p = decomposeTp(18, 6, 6);
    EXPECT_EQ(p.tp(), 18);
    EXPECT_EQ(6 % p.tpX, 0);
    EXPECT_EQ(6 % p.tpY, 0);
}

TEST(Parallelism, DpComplementsTp)
{
    const auto p = decomposeTp(4, 4, 4);
    EXPECT_EQ(p.dp(16), 4);
}

TEST(Parallelism, LabelMentionsShape)
{
    ParallelismConfig p;
    p.tpX = 2;
    p.tpY = 4;
    EXPECT_EQ(p.label(), "TP8(2x4)");
}

// -------------------------------------------- paper worked example ----

TEST(ErMapping, PaperFig8cGroupMembership)
{
    // 4×4 mesh, TP=(2,2): TP group (0,0) must be the stride-2 residue
    // class {(0,0),(0,2),(2,0),(2,2)} (1-based {1,1},{1,3},{3,1},{3,3}).
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    EXPECT_EQ(er.strideRows(), 2);
    EXPECT_EQ(er.strideCols(), 2);

    std::set<DeviceId> expect{
        mesh.deviceAt(0, 0), mesh.deviceAt(0, 2), mesh.deviceAt(2, 0),
        mesh.deviceAt(2, 2)};
    const int g = er.tpGroupOf(mesh.deviceAt(0, 0));
    std::set<DeviceId> actual(er.tpGroups()[std::size_t(g)].begin(),
                              er.tpGroups()[std::size_t(g)].end());
    EXPECT_EQ(actual, expect);
}

TEST(ErMapping, PaperFig10aFtdExample)
{
    // FTD_{2,2} = {D_{x,y} | 2 < x ≤ 4, 2 < y ≤ 4} (1-based) — the
    // bottom-right 2×2 block.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const int f = er.ftdOf(mesh.deviceAt(3, 3));
    std::set<DeviceId> expect{
        mesh.deviceAt(2, 2), mesh.deviceAt(2, 3), mesh.deviceAt(3, 2),
        mesh.deviceAt(3, 3)};
    std::set<DeviceId> actual(er.ftds()[std::size_t(f)].begin(),
                              er.ftds()[std::size_t(f)].end());
    EXPECT_EQ(actual, expect);
}

TEST(ErMapping, PaperAverageHops)
{
    // 2×2-area FTD: average hops 4/3 ≈ 1.33 (paper: "1.3").
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    for (const auto &ftd : er.ftds())
        EXPECT_NEAR(ftdAverageHops(mesh, ftd), 4.0 / 3.0, 1e-12);
}

TEST(BaselineMapping, PaperAverageHops)
{
    // 3×3-area FTD: average hops 8/3 ≈ 2.67 (paper: "2.7").
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const BaselineMapping base(mesh, ParallelismConfig{2, 2});
    for (const auto &ftd : base.ftds())
        EXPECT_NEAR(ftdAverageHops(mesh, ftd), 8.0 / 3.0, 1e-12);
}

TEST(BaselineMapping, PaperFig8bFtdMembership)
{
    // FTD containing (0,0) pairs the same within-block offset across
    // blocks: {(0,0),(0,2),(2,0),(2,2)}.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const BaselineMapping base(mesh, ParallelismConfig{2, 2});
    const int f = base.ftdOf(mesh.deviceAt(0, 0));
    std::set<DeviceId> expect{
        mesh.deviceAt(0, 0), mesh.deviceAt(0, 2), mesh.deviceAt(2, 0),
        mesh.deviceAt(2, 2)};
    std::set<DeviceId> actual(base.ftds()[std::size_t(f)].begin(),
                              base.ftds()[std::size_t(f)].end());
    EXPECT_EQ(actual, expect);
}

TEST(BaselineMapping, GroupsAreContiguousBlocks)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const BaselineMapping base(mesh, ParallelismConfig{2, 2});
    const int g = base.tpGroupOf(mesh.deviceAt(0, 0));
    std::set<DeviceId> expect{
        mesh.deviceAt(0, 0), mesh.deviceAt(0, 1), mesh.deviceAt(1, 0),
        mesh.deviceAt(1, 1)};
    std::set<DeviceId> actual(base.tpGroups()[std::size_t(g)].begin(),
                              base.tpGroups()[std::size_t(g)].end());
    EXPECT_EQ(actual, expect);
}

TEST(Mapping, FtdIntersectionsBaselineVsEr)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const BaselineMapping base(mesh, ParallelismConfig{2, 2});
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    EXPECT_GT(countFtdIntersections(mesh, base.ftds()), 0);
    EXPECT_EQ(countFtdIntersections(mesh, er.ftds()), 0);
}

TEST(Mapping, ErAllReduceCostsTwiceBaseline)
{
    // Fig. 8(d): entwined two-hop rings double the all-reduce latency.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const BaselineMapping base(mesh, ParallelismConfig{2, 2});
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const double bytes = 8e6;
    const double tBase = base.allReduce(bytes, true).time;
    const double tEr = er.allReduce(bytes, true).time;
    EXPECT_NEAR(tEr, 2.0 * tBase, 1e-9);
}

TEST(Mapping, DispatchSourceWithAllGatherIsNearest)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    // Group of device (0,0) = {(0,0),(0,2),(2,0),(2,2)}. For an expert
    // at (3,3), the nearest member is (2,2).
    const int g = er.tpGroupOf(mesh.deviceAt(0, 0));
    const DeviceId src =
        er.dispatchSource(g, 0, mesh.deviceAt(3, 3), true);
    EXPECT_EQ(src, mesh.deviceAt(2, 2));
}

TEST(Mapping, DispatchSourceWithoutAllGatherIsOwner)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const int g = er.tpGroupOf(mesh.deviceAt(0, 0));
    const DeviceId owner = er.tpGroups()[std::size_t(g)][2];
    EXPECT_EQ(er.dispatchSource(g, 2, mesh.deviceAt(3, 3), false),
              owner);
}

TEST(Mapping, DispatchMemoMatchesDispatchSource)
{
    // The memo is laid out [group][destination][rank]; both accessors
    // must answer exactly what dispatchSource() derives, for every
    // (group, rank, destination) under both all-gather modes.
    for (const PlatformKind platform :
         {PlatformKind::WscEr, PlatformKind::WscHer,
          PlatformKind::DgxCluster}) {
        SystemConfig sc;
        sc.platform = platform;
        sc.wafers = platform == PlatformKind::WscHer ? 2 : 1;
        const System sys = System::make(sc);
        const Mapping &m = sys.mapping();
        for (const bool ag : {true, false}) {
            const DispatchSourceRows rows = m.dispatchSourceRows(ag);
            for (int g = 0; g < m.dp(); ++g) {
                for (DeviceId d = 0; d < m.numDevices(); ++d) {
                    const DeviceId *row = rows.row(g, d);
                    for (int r = 0; r < m.tp(); ++r) {
                        const DeviceId want = m.dispatchSource(g, r, d, ag);
                        EXPECT_EQ(row[r], want)
                            << m.name() << " g" << g << " r" << r << " d"
                            << d << " ag " << ag;
                        EXPECT_EQ(m.dispatchSourceCached(g, r, d, ag), want);
                    }
                }
            }
        }
    }
}

TEST(Mapping, MeshDedupFactorIsOne)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    EXPECT_DOUBLE_EQ(er.dispatchDedupFactor(0, 15, 8), 1.0);
}

// ------------------------------------------------ invariant sweeps ----

/** (meshN, tpX, tpY) sweep covering the paper's configurations. */
class MappingInvariants
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
  protected:
    int meshN() const { return std::get<0>(GetParam()); }
    ParallelismConfig
    par() const
    {
        return ParallelismConfig{std::get<1>(GetParam()),
                                 std::get<2>(GetParam())};
    }
};

TEST_P(MappingInvariants, GroupsPartitionDevices)
{
    const MeshTopology mesh = MeshTopology::singleWafer(meshN());
    for (const bool er : {false, true}) {
        std::unique_ptr<Mapping> m;
        if (er)
            m = std::make_unique<ErMapping>(mesh, par());
        else
            m = std::make_unique<BaselineMapping>(mesh, par());
        EXPECT_EQ(m->tp(), par().tp());
        EXPECT_EQ(m->dp() * m->tp(), mesh.numDevices());
        std::set<DeviceId> seen;
        for (const auto &group : m->tpGroups()) {
            EXPECT_EQ(group.size(), std::size_t(par().tp()));
            seen.insert(group.begin(), group.end());
        }
        EXPECT_EQ(seen.size(), std::size_t(mesh.numDevices()));
    }
}

TEST_P(MappingInvariants, FtdsPartitionDevices)
{
    const MeshTopology mesh = MeshTopology::singleWafer(meshN());
    for (const bool er : {false, true}) {
        std::unique_ptr<Mapping> m;
        if (er)
            m = std::make_unique<ErMapping>(mesh, par());
        else
            m = std::make_unique<BaselineMapping>(mesh, par());
        std::set<DeviceId> seen;
        for (const auto &ftd : m->ftds())
            seen.insert(ftd.begin(), ftd.end());
        EXPECT_EQ(seen.size(), std::size_t(mesh.numDevices()));
    }
}

TEST_P(MappingInvariants, EveryFtdCoversAllGroups)
{
    // The defining FTD property: one member of every TP group.
    const MeshTopology mesh = MeshTopology::singleWafer(meshN());
    for (const bool er : {false, true}) {
        std::unique_ptr<Mapping> m;
        if (er)
            m = std::make_unique<ErMapping>(mesh, par());
        else
            m = std::make_unique<BaselineMapping>(mesh, par());
        for (const auto &ftd : m->ftds()) {
            std::set<int> groups;
            for (const DeviceId d : ftd)
                groups.insert(m->tpGroupOf(d));
            EXPECT_EQ(groups.size(), std::size_t(m->dp()));
        }
    }
}

TEST_P(MappingInvariants, ReverseIndicesConsistent)
{
    const MeshTopology mesh = MeshTopology::singleWafer(meshN());
    const ErMapping er(mesh, par());
    for (DeviceId d = 0; d < mesh.numDevices(); ++d) {
        const int g = er.tpGroupOf(d);
        const int r = er.tpRankOf(d);
        EXPECT_EQ(er.tpGroups()[std::size_t(g)][std::size_t(r)], d);
        const int f = er.ftdOf(d);
        const auto &ftd = er.ftds()[std::size_t(f)];
        EXPECT_NE(std::find(ftd.begin(), ftd.end(), d), ftd.end());
    }
}

TEST_P(MappingInvariants, ErFtdsAreCompactAndDisjoint)
{
    const MeshTopology mesh = MeshTopology::singleWafer(meshN());
    const ErMapping er(mesh, par());
    for (const auto &ftd : er.ftds()) {
        const BoundingBox box = ftdBoundingBox(mesh, ftd);
        EXPECT_EQ(box.area(), static_cast<int>(ftd.size()));
    }
    EXPECT_EQ(countFtdIntersections(mesh, er.ftds()), 0);
}

TEST_P(MappingInvariants, ErFtdHopsNeverWorseThanBaseline)
{
    const MeshTopology mesh = MeshTopology::singleWafer(meshN());
    const BaselineMapping base(mesh, par());
    const ErMapping er(mesh, par());
    if (base.dp() < 2)
        GTEST_SKIP() << "single group: FTDs are singletons";
    EXPECT_LE(ftdAverageHops(mesh, er.ftds().front()),
              ftdAverageHops(mesh, base.ftds().front()) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MappingInvariants,
    ::testing::Values(std::make_tuple(4, 2, 2),   // 4×4 TP=4 (paper)
                      std::make_tuple(4, 1, 2),   // TP=2
                      std::make_tuple(4, 2, 4),   // TP=8
                      std::make_tuple(4, 4, 4),   // TP=16
                      std::make_tuple(6, 2, 2),   // 6×6 TP=4
                      std::make_tuple(6, 2, 3),   // TP=6
                      std::make_tuple(6, 3, 6),   // TP=18
                      std::make_tuple(8, 2, 2),   // 8×8 TP=4
                      std::make_tuple(8, 2, 4),   // TP=8
                      std::make_tuple(8, 4, 4))); // TP=16
