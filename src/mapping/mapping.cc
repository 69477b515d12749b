#include "mapping/mapping.hh"

#include <tuple>

#include "common/logging.hh"
#include "mapping/ring_order.hh"

namespace moentwine {

Mapping::Mapping(const Topology &topo)
    : topo_(topo)
{
}

void
Mapping::finalize()
{
    MOE_ASSERT(!tpGroups_.empty(), "mapping has no TP groups");
    MOE_ASSERT(!ftds_.empty(), "mapping has no FTDs");
    const auto n = static_cast<std::size_t>(numDevices());
    groupOf_.assign(n, -1);
    rankOf_.assign(n, -1);
    ftdIndexOf_.assign(n, -1);

    for (std::size_t g = 0; g < tpGroups_.size(); ++g) {
        for (std::size_t r = 0; r < tpGroups_[g].size(); ++r) {
            const DeviceId d = tpGroups_[g][r];
            MOE_ASSERT(d >= 0 && static_cast<std::size_t>(d) < n,
                       "TP group member out of range");
            MOE_ASSERT(groupOf_[static_cast<std::size_t>(d)] == -1,
                       "device appears in two TP groups");
            groupOf_[static_cast<std::size_t>(d)] = static_cast<int>(g);
            rankOf_[static_cast<std::size_t>(d)] = static_cast<int>(r);
        }
    }
    for (std::size_t f = 0; f < ftds_.size(); ++f) {
        for (const DeviceId d : ftds_[f]) {
            MOE_ASSERT(d >= 0 && static_cast<std::size_t>(d) < n,
                       "FTD member out of range");
            MOE_ASSERT(ftdIndexOf_[static_cast<std::size_t>(d)] == -1,
                       "device appears in two FTDs");
            ftdIndexOf_[static_cast<std::size_t>(d)] =
                static_cast<int>(f);
        }
    }
    for (std::size_t d = 0; d < n; ++d) {
        MOE_ASSERT(groupOf_[d] >= 0, "device missing from TP groups");
        MOE_ASSERT(ftdIndexOf_[d] >= 0, "device missing from FTDs");
    }

    // FTDs are fixed, so their collective ring orders are derived once
    // here instead of per call at the engine layer.
    ftdRings_.clear();
    ftdRings_.reserve(ftds_.size());
    for (const auto &ftd : ftds_)
        ftdRings_.push_back(serpentineRing(topo_, ftd));
}

int
Mapping::tpGroupOf(DeviceId d) const
{
    MOE_ASSERT(d >= 0 && d < numDevices(), "tpGroupOf: bad device");
    return groupOf_[static_cast<std::size_t>(d)];
}

int
Mapping::tpRankOf(DeviceId d) const
{
    MOE_ASSERT(d >= 0 && d < numDevices(), "tpRankOf: bad device");
    return rankOf_[static_cast<std::size_t>(d)];
}

int
Mapping::ftdOf(DeviceId d) const
{
    MOE_ASSERT(d >= 0 && d < numDevices(), "ftdOf: bad device");
    return ftdIndexOf_[static_cast<std::size_t>(d)];
}

CollectiveTiming
Mapping::allReduce(double bytesPerGroup, bool withAllGather) const
{
    CollectiveScratch scratch(topo_);
    const double time =
        allReduceInto(bytesPerGroup, withAllGather, scratch);
    return CollectiveTiming{time, std::move(scratch.traffic)};
}

double
Mapping::allReduceInto(double bytesPerGroup, bool withAllGather,
                       CollectiveScratch &scratch) const
{
    return allReduceInto(topo_, bytesPerGroup, withAllGather, scratch);
}

double
Mapping::allReduceInto(const Topology &onTopo, double bytesPerGroup,
                       bool withAllGather,
                       CollectiveScratch &scratch) const
{
    return ringCollectiveInto(onTopo, tpGroups_, bytesPerGroup,
                              withAllGather ? RingOp::AllReduce
                                            : RingOp::ReduceScatter,
                              staggeredRings(), scratch);
}

DeviceId
Mapping::dispatchSource(int group, int rank, DeviceId expertDevice,
                        bool allGatherRetained) const
{
    MOE_ASSERT(group >= 0 && group < dp(), "bad TP group index");
    const auto &members = tpGroups_[static_cast<std::size_t>(group)];
    MOE_ASSERT(rank >= 0 && static_cast<std::size_t>(rank) <
                   members.size(),
               "bad shard rank");
    if (!allGatherRetained) {
        // Only the reduce-scatter owner holds the shard.
        return members[static_cast<std::size_t>(rank)];
    }
    return nearestGroupMember(group, expertDevice);
}

void
Mapping::buildDispatchTable(bool allGatherRetained,
                            std::vector<DeviceId> &table) const
{
    const auto devices = static_cast<std::size_t>(numDevices());
    table.resize(static_cast<std::size_t>(dp()) * devices *
                 static_cast<std::size_t>(tp()));
    std::size_t i = 0;
    for (int g = 0; g < dp(); ++g)
        for (DeviceId d = 0; d < numDevices(); ++d)
            for (int r = 0; r < tp(); ++r, ++i)
                table[i] = dispatchSource(g, r, d, allGatherRetained);
}

DispatchSourceRows
Mapping::dispatchSourceRows(bool allGatherRetained) const
{
    // call_once publishes the finished table, so engines on different
    // threads sharing one const mapping cannot observe a partial build.
    auto &table = allGatherRetained ? dispatchSrcAg_ : dispatchSrcNoAg_;
    std::call_once(allGatherRetained ? dispatchOnceAg_ : dispatchOnceNoAg_,
                   [&] { buildDispatchTable(allGatherRetained, table); });
    return DispatchSourceRows(table.data(), numDevices(), tp());
}

DeviceId
Mapping::dispatchSourceCached(int group, int rank, DeviceId expertDevice,
                              bool allGatherRetained) const
{
    MOE_ASSERT(group >= 0 && group < dp(), "bad TP group index");
    MOE_ASSERT(rank >= 0 && rank < tp(), "bad shard rank");
    MOE_ASSERT(expertDevice >= 0 && expertDevice < numDevices(),
               "bad expert device");
    return dispatchSourceRows(allGatherRetained)
        .row(group, expertDevice)[rank];
}

void
Mapping::prewarmCaches() const
{
    topo_.finalizeRoutes();
    // Force both dispatch memo tables through the once-guard.
    (void)dispatchSourceRows(true);
    (void)dispatchSourceRows(false);
}

double
Mapping::dispatchDedupFactor(DeviceId, DeviceId, int) const
{
    return 1.0;
}

DeviceId
Mapping::nearestGroupMember(int group, DeviceId to) const
{
    MOE_ASSERT(group >= 0 && group < dp(), "bad TP group index");
    const auto &members = tpGroups_[static_cast<std::size_t>(group)];
    const int targetFtd = ftdOf(to);
    if (confineDispatchToFtd()) {
        for (const DeviceId m : members)
            if (ftdOf(m) == targetFtd)
                return m;
        // No group member in the destination's FTD (should not happen
        // for ER-style mappings); fall through to nearest.
    }
    // Rank members by hop count; ties prefer the member sharing the
    // target's FTD (keeping all-to-all traffic domain-confined, the
    // property ER-Mapping is built around), then the lower id.
    auto rank = [&](DeviceId m) {
        return std::tuple<int, int, DeviceId>(
            topo_.hops(m, to), ftdOf(m) == targetFtd ? 0 : 1, m);
    };
    DeviceId best = members.front();
    auto bestRank = rank(best);
    for (const DeviceId m : members) {
        const auto r = rank(m);
        if (r < bestRank) {
            best = m;
            bestRank = r;
        }
    }
    return best;
}

} // namespace moentwine
