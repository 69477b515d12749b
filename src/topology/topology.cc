#include "topology/topology.hh"

#include <algorithm>

#include "common/logging.hh"

namespace moentwine {

std::vector<LinkId>
Topology::computeRoute(DeviceId src, DeviceId dst) const
{
    std::vector<LinkId> path;
    foldRoute(src, dst, [&path](LinkId l, const Link &) {
        path.push_back(l);
    });
    return path;
}

PathWalker
Topology::walk(DeviceId src, DeviceId dst) const
{
    if (routes_.disabled()) {
        // clear() keeps the capacity, so steady-state walks reuse it.
        uncachedScratch_.clear();
        foldRoute(src, dst, [this](LinkId l, const Link &) {
            uncachedScratch_.push_back(l);
        });
        return PathWalker(
            PathView(uncachedScratch_.data(), uncachedScratch_.size()));
    }
    ensureRoutes();
    if (nextHops_.built())
        return PathWalker(nextHops_, src, dst);
    return PathWalker(routes_.path(src, dst));
}

int
Topology::hops(DeviceId src, DeviceId dst) const
{
    if (routes_.disabled())
        return foldRoute(src, dst, [](LinkId, const Link &) {});
    ensureRoutes();
    if (nextHops_.built())
        return nextHops_.hops(src, dst);
    return routes_.hops(src, dst);
}

void
Topology::minHopsFrom(DeviceId src, int *out) const
{
    if (routes_.disabled()) {
        for (DeviceId d = 0; d < numDevices(); ++d)
            out[d] = std::min(out[d], hops(src, d));
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
        foldRoute(src, dst, [&total](LinkId, const Link &link) {
            total += link.latency;
        });
        return total;
    }
    ensureRoutes();
    if (nextHops_.built())
        return nextHops_.latency(src, dst);
    return routes_.latency(src, dst);
}

double
Topology::pathInvBandwidthSum(DeviceId src, DeviceId dst) const
{
    if (routes_.disabled()) {
        double total = 0.0;
        foldRoute(src, dst, [&total](LinkId, const Link &link) {
            total += 1.0 / link.bandwidth;
        });
        return total;
    }
    ensureRoutes();
    if (nextHops_.built())
        return nextHops_.invBandwidthSum(src, dst);
    return routes_.invBandwidthSum(src, dst);
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
