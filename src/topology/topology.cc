#include "topology/topology.hh"

#include <algorithm>

#include "common/logging.hh"

namespace moentwine {

PathView
Topology::route(DeviceId src, DeviceId dst) const
{
    if (routes_.disabled()) {
        uncachedScratch_ = computeRoute(src, dst);
        return PathView(uncachedScratch_.data(), uncachedScratch_.size());
    }
    ensureRoutes();
    if (nextHops_.built()) {
        // Materialise the walk so callers keep a contiguous view; the
        // scratch is overwritten by the next route() call (see header).
        uncachedScratch_.clear();
        for (const LinkId l : walk(src, dst))
            uncachedScratch_.push_back(l);
        return PathView(uncachedScratch_.data(), uncachedScratch_.size());
    }
    return routes_.path(src, dst);
}

PathWalker
Topology::walk(DeviceId src, DeviceId dst) const
{
    if (routes_.disabled())
        return PathWalker(route(src, dst));
    ensureRoutes();
    if (nextHops_.built())
        return PathWalker(nextHops_, src, dst);
    return PathWalker(routes_.path(src, dst));
}

int
Topology::hops(DeviceId src, DeviceId dst) const
{
    if (routes_.disabled())
        return static_cast<int>(computeRoute(src, dst).size());
    ensureRoutes();
    if (nextHops_.built())
        return nextHops_.hops(src, dst);
    return routes_.hops(src, dst);
}

void
Topology::minHopsFrom(DeviceId src, int *out) const
{
    if (routes_.disabled()) {
        for (DeviceId d = 0; d < numDevices(); ++d) {
            out[d] = std::min(
                out[d], static_cast<int>(computeRoute(src, d).size()));
        }
        return;
    }
    ensureRoutes();
    if (nextHops_.built())
        nextHops_.minHopsFrom(src, out);
    else
        routes_.minHopsFrom(src, out);
}

double
Topology::pathLatency(DeviceId src, DeviceId dst) const
{
    if (routes_.disabled()) {
        double total = 0.0;
        for (LinkId l : computeRoute(src, dst))
            total += links_[static_cast<std::size_t>(l)].latency;
        return total;
    }
    ensureRoutes();
    if (nextHops_.built())
        return nextHops_.latency(src, dst);
    return routes_.latency(src, dst);
}

double
Topology::pathBandwidth(DeviceId src, DeviceId dst) const
{
    if (routes_.disabled()) {
        const auto path = computeRoute(src, dst);
        MOE_ASSERT(!path.empty(), "pathBandwidth of a zero-hop route");
        double bw = links_[static_cast<std::size_t>(path.front())].bandwidth;
        for (LinkId l : path)
            bw = std::min(bw, links_[static_cast<std::size_t>(l)].bandwidth);
        return bw;
    }
    ensureRoutes();
    if (nextHops_.built()) {
        // The compressed storage keeps no bottleneck column (it is the
        // one Eq.(1) ingredient nothing queries per iteration); a walk
        // reproduces the arena's min over the identical link set.
        MOE_ASSERT(nextHops_.hops(src, dst) > 0,
                   "pathBandwidth of a zero-hop route");
        double bw = 0.0;
        for (const LinkId l : walk(src, dst)) {
            const double b = links_[static_cast<std::size_t>(l)].bandwidth;
            bw = bw == 0.0 ? b : std::min(bw, b);
        }
        return bw;
    }
    const double bw = routes_.minBandwidth(src, dst);
    MOE_ASSERT(bw > 0.0, "pathBandwidth of a zero-hop route");
    return bw;
}

double
Topology::pathInvBandwidthSum(DeviceId src, DeviceId dst) const
{
    if (routes_.disabled()) {
        double total = 0.0;
        for (LinkId l : computeRoute(src, dst))
            total += 1.0 / links_[static_cast<std::size_t>(l)].bandwidth;
        return total;
    }
    ensureRoutes();
    if (nextHops_.built())
        return nextHops_.invBandwidthSum(src, dst);
    return routes_.invBandwidthSum(src, dst);
}

const RouteTable &
Topology::routeTable() const
{
    MOE_ASSERT(!routes_.disabled(),
               "routeTable() while the cache is disabled");
    MOE_ASSERT(activeRouteStorage() == RouteStorageKind::CsrArena,
               "routeTable() under the next-hop storage; use "
               "nextHopTable() or walk()");
    ensureRoutes();
    return routes_;
}

const NextHopTable &
Topology::nextHopTable() const
{
    MOE_ASSERT(!routes_.disabled(),
               "nextHopTable() while the cache is disabled");
    MOE_ASSERT(activeRouteStorage() == RouteStorageKind::NextHop,
               "nextHopTable() under the CSR storage; use routeTable()");
    ensureRoutes();
    return nextHops_;
}

void
Topology::setRouteStorage(RouteStorageKind kind)
{
    if (kind == storageKind_)
        return;
    storageKind_ = kind;
    // Drop whichever representation was built; the next query (or
    // finalizeRoutes()) rebuilds under the new policy.
    routes_.reset();
    nextHops_.reset();
    uncachedScratch_.clear();
}

std::size_t
Topology::routeStorageBytes() const
{
    MOE_ASSERT(!routes_.disabled(),
               "routeStorageBytes() while the cache is disabled");
    ensureRoutes();
    return nextHops_.built() ? nextHops_.storageBytes()
                             : routes_.storageBytes();
}

void
Topology::disableRouteCache()
{
    routes_.disableCache();
    nextHops_.reset();
}

void
Topology::ensureRoutes() const
{
    // Double-checked build: the fast path is an acquire load per
    // storage; the slow path serialises racing first users behind a
    // mutex so a shared const topology is safe even without
    // finalizeRoutes().
    if (routes_.built() || nextHops_.built())
        return;
    std::lock_guard<std::mutex> guard(routeBuildMutex_);
    if (routes_.built() || nextHops_.built() || routes_.disabled())
        return;
    if (activeRouteStorage() == RouteStorageKind::NextHop)
        nextHops_.build(*this);
    else
        routes_.build(*this);
}

LinkId
Topology::linkBetween(NodeId src, NodeId dst) const
{
    if (src < 0 || static_cast<std::size_t>(src) >= outIndex_.size())
        return -1;
    const auto &index = outIndex_[static_cast<std::size_t>(src)];
    const auto it = index.find(dst);
    return it == index.end() ? -1 : it->second;
}

void
Topology::invalidateRouteStorage()
{
    routes_.reset();
    nextHops_.reset();
    uncachedScratch_.clear();
}

LinkId
Topology::addLink(NodeId src, NodeId dst, double bandwidth, double latency)
{
    MOE_ASSERT(src != dst, "self-links are not allowed");
    MOE_ASSERT(bandwidth > 0.0, "link bandwidth must be positive");
    MOE_ASSERT(latency >= 0.0, "link latency must be non-negative");
    const auto id = static_cast<LinkId>(links_.size());
    links_.push_back(Link{src, dst, bandwidth, latency});
    const auto need = static_cast<std::size_t>(src) + 1;
    if (outIndex_.size() < need)
        outIndex_.resize(need);
    const bool inserted =
        outIndex_[static_cast<std::size_t>(src)].emplace(dst, id).second;
    MOE_ASSERT(inserted, "duplicate directed link");
    return id;
}

} // namespace moentwine
