/**
 * @file
 * Abstract network topology interface shared by the wafer-scale mesh and
 * the GPU-cluster baselines.
 *
 * A topology is a directed graph of unidirectional links between nodes.
 * Nodes [0, numDevices()) are compute devices; a topology may add
 * internal nodes beyond that range (e.g. switches in a DGX cluster).
 *
 * Routing is one function per topology family: nextHop(node, dst), the
 * link leaving a node toward a destination device (XY step on the
 * mesh, up/over/down on switch clusters, the reroute trees of the
 * fault overlay). Routes are therefore deterministic and node-locally
 * consistent by construction, which is what lets the analytical
 * congestion model accumulate per-link traffic volumes reproducibly.
 * computeRoute() walks nextHop() into a fresh vector; it is the
 * reference the tests compare every storage against.
 *
 * Topologies are immutable after construction, so all-pairs routing is
 * precomputed once into one of two interchangeable storages selected
 * by a RouteStorage policy, both filled by walking nextHop():
 *
 *  - RouteTable (CSR arena): every path stored explicitly, O(devices² ×
 *    avg hops) memory; walk() iterates a borrowed contiguous view.
 *  - NextHopTable (compressed): one packed 4-byte {link, next node}
 *    entry per (dst, node), stored destination-major, O(devices ×
 *    nodes) memory; walk() follows one contiguous column. Its 16-bit
 *    fields limit it to topologies of at most 65535 links and 65535
 *    nodes, checked loudly at build.
 *
 * Both storages precompute the per-pair scalars, so hops(),
 * pathLatency() and pathInvBandwidthSum() are O(1) non-allocating
 * lookups either way, and both answer bitwise identical values. With
 * the cache disabled the same queries fold nextHop() directly, still
 * without allocating. The policy defaults to Auto: CSR below
 * kNextHopAutoThreshold devices, compressed at or above it (kilodevice
 * meshes and switch clusters whose arena would dominate RSS).
 */

#ifndef MOENTWINE_TOPOLOGY_TOPOLOGY_HH
#define MOENTWINE_TOPOLOGY_TOPOLOGY_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "topology/graph.hh"
#include "topology/next_hop_table.hh"

namespace moentwine {

class Topology;

/**
 * All-pairs route cache over the compute devices of a topology.
 *
 * Paths are stored back to back in one arena vector indexed by a
 * (src, dst) offset table (CSR layout), so a route lookup is two loads
 * and no allocation. Per-pair scalars answer the Eq.(1) ingredients
 * without re-walking links:
 *  - latency(): sum of per-link latencies along the route;
 *  - invBandwidthSum(): Σ 1/bw over the route's links, so the
 *    store-and-forward volume term of Eq.(1) is bytes × invBandwidthSum.
 */
class RouteTable
{
  public:
    RouteTable() = default;

    // Copies/moves transfer the table data and the built flag. They
    // exist so topology factories can return by value; copying a table
    // that another thread is concurrently building is not supported
    // (finalized topologies are shared by pointer, never copied).
    RouteTable(const RouteTable &other) { *this = other; }
    RouteTable(RouteTable &&other) noexcept { *this = std::move(other); }
    RouteTable &operator=(const RouteTable &other);
    RouteTable &operator=(RouteTable &&other) noexcept;

    /** Precompute all-pairs routes by walking topo.nextHop(). */
    void build(const Topology &topo);

    /**
     * True once build() has run (and the cache is not disabled). An
     * acquire load: a true result makes the arena built by another
     * thread visible, which is what lets worker threads share one
     * finalized topology without synchronising per query.
     */
    bool built() const { return built_.load(std::memory_order_acquire); }

    /**
     * Test hook: drop the table and make built() stay false so the
     * owning topology folds nextHop() on every query.
     * Used by the 16k-device scale_smoke (an all-pairs table would not
     * fit) and by the tests as the uncached reference.
     */
    void disableCache();

    /** True while the test hook holds the cache off. */
    bool disabled() const { return disabled_; }

    /** Drop the table so the storage policy can switch (rebuilds lazily). */
    void reset();

    /** Cached route; empty when src == dst. */
    PathView path(DeviceId src, DeviceId dst) const
    {
        const std::size_t p = pairIndex(src, dst);
        const std::size_t begin = offsets_[p];
        return PathView(paths_.data() + begin, offsets_[p + 1] - begin);
    }

    /** Hop count of the cached route. */
    int hops(DeviceId src, DeviceId dst) const
    {
        const std::size_t p = pairIndex(src, dst);
        return static_cast<int>(offsets_[p + 1] - offsets_[p]);
    }

    /** out[d] = min(out[d], hops(src, d)) for every device d. */
    void minHopsFrom(DeviceId src, int *out) const
    {
        const std::size_t *row = offsets_.data() + pairIndex(src, 0);
        for (int d = 0; d < devices_; ++d) {
            out[d] = std::min(
                out[d], static_cast<int>(row[d + 1] - row[d]));
        }
    }

    /** Sum of per-link latencies along the cached route. */
    double latency(DeviceId src, DeviceId dst) const
    {
        return latency_[pairIndex(src, dst)];
    }

    /** Σ 1/bandwidth over the cached route's links. */
    double invBandwidthSum(DeviceId src, DeviceId dst) const
    {
        return invBwSum_[pairIndex(src, dst)];
    }

    /** Heap footprint of the built arena (route-storage bytes). */
    std::size_t storageBytes() const;

  private:
    std::size_t pairIndex(DeviceId src, DeviceId dst) const
    {
        return static_cast<std::size_t>(src) *
                   static_cast<std::size_t>(devices_) +
               static_cast<std::size_t>(dst);
    }

    int devices_ = 0;
    // Release-published by build(); see built(). Makes the table safe
    // to race-check from concurrent const queries.
    std::atomic<bool> built_{false};
    bool disabled_ = false;
    std::vector<std::size_t> offsets_;
    std::vector<LinkId> paths_;
    std::vector<double> latency_;
    std::vector<double> invBwSum_;
};

/**
 * Which all-pairs route storage a topology builds. Both storages
 * answer every route query with bitwise identical results; they trade
 * arena memory (CSR) against one dependent table load per hop
 * (NextHop).
 */
enum class RouteStorageKind
{
    /** CSR below Topology::kNextHopAutoThreshold devices, else NextHop. */
    Auto,
    /** Explicit per-path arena (RouteTable). */
    CsrArena,
    /** Compressed destination-major next-hop matrix (NextHopTable). */
    NextHop,
};

/**
 * Base class for all network topologies.
 *
 * Subclasses implement nextHop(); every route query is served from a
 * lazily built route storage (CSR arena or next-hop matrix, see
 * RouteStorageKind) filled from it. The lazy build is guarded
 * (double-checked mutex + release-published flag), so every const
 * query of a fully constructed topology is safe to share across
 * threads — including concurrent first use. Call finalizeRoutes() to
 * pay the build cost eagerly (System::make does) so worker threads
 * never contend on the guard.
 *
 * The disableRouteCache() and setRouteStorage() hooks mutate cache
 * state and are NOT thread-safe; they exist for single-threaded
 * configuration and tests only. With the cache disabled, walk()
 * materialises into a per-topology scratch, so that mode stays
 * single-threaded too.
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    /**
     * Auto-policy cutover: systems at or above this many devices build
     * the compressed next-hop matrix instead of the CSR arena. Below
     * it the arena is small (a few MB) and its walks skip the column
     * lookups; above it the arena's O(devices² × avg hops) growth dominates
     * RSS, which is what blocked kilodevice systems.
     */
    static constexpr int kNextHopAutoThreshold = 512;

    // Copy/move keep links, adjacency, the storage policy, and any
    // built route tables, and start with a fresh (unheld) build mutex.
    // They exist so concrete factories can return by value; topologies
    // in active concurrent use are shared by const pointer/reference,
    // never copied.
    Topology(const Topology &other)
        : links_(other.links_),
          outIndex_(other.outIndex_),
          storageKind_(other.storageKind_),
          routes_(other.routes_),
          nextHops_(other.nextHops_)
    {
    }

    Topology(Topology &&other) noexcept
        : links_(std::move(other.links_)),
          outIndex_(std::move(other.outIndex_)),
          storageKind_(other.storageKind_),
          routes_(std::move(other.routes_)),
          nextHops_(std::move(other.nextHops_))
    {
    }

    Topology &operator=(const Topology &other)
    {
        links_ = other.links_;
        outIndex_ = other.outIndex_;
        storageKind_ = other.storageKind_;
        routes_ = other.routes_;
        nextHops_ = other.nextHops_;
        uncachedScratch_.clear();
        return *this;
    }

    Topology &operator=(Topology &&other) noexcept
    {
        links_ = std::move(other.links_);
        outIndex_ = std::move(other.outIndex_);
        storageKind_ = other.storageKind_;
        routes_ = std::move(other.routes_);
        nextHops_ = std::move(other.nextHops_);
        uncachedScratch_.clear();
        return *this;
    }

    /** Number of compute devices (excludes internal switch nodes). */
    virtual int numDevices() const = 0;

    /** Total number of nodes including internal switches. */
    virtual int numNodes() const { return numDevices(); }

    /** All unidirectional links. */
    const std::vector<Link> &links() const { return links_; }

    /**
     * The routing function: the link leaving @p node toward compute
     * device @p dst, or -1 when node == dst or no route exists (a
     * device cut off by faults). Every route storage and uncached
     * query is folded from it.
     */
    virtual LinkId nextHop(NodeId node, DeviceId dst) const = 0;

    /**
     * Fold the route src → dst straight from nextHop(), calling
     * onLink(id, link) per hop in path order; returns the hop count.
     * Allocation-free and storage-independent. Aborts on a routing
     * cycle (a walk longer than numNodes() hops).
     */
    template <class OnLink>
    int foldRoute(DeviceId src, DeviceId dst, OnLink &&onLink) const
    {
        MOE_ASSERT(src >= 0 && src < numDevices(), "route: bad src device");
        MOE_ASSERT(dst >= 0 && dst < numDevices(), "route: bad dst device");
        const auto next = [this, dst](NodeId n, NodeId &to) {
            const LinkId l = nextHop(n, dst);
            if (l >= 0)
                to = links_[static_cast<std::size_t>(l)].dst;
            return l;
        };
        return followNextHops(src, dst, numNodes(), links_.data(), next,
                              onLink);
    }

    /**
     * Deterministic route between two compute devices, freshly walked
     * from nextHop() (allocates): the reference the tests compare the
     * route storages against. Consumers should use walk().
     * @return Link indices in traversal order; empty when src == dst.
     */
    std::vector<LinkId> computeRoute(DeviceId src, DeviceId dst) const;

    /**
     * Allocation-free cursor over the deterministic route, uniform
     * across both route storages. Safe to use concurrently from many
     * threads on a finalized topology. With the cache disabled it
     * walks a per-topology scratch filled from nextHop(), which the
     * next walk() on this topology overwrites.
     */
    PathWalker walk(DeviceId src, DeviceId dst) const;

    /** Hop count of the deterministic route (0 when src == dst). */
    int hops(DeviceId src, DeviceId dst) const;

    /**
     * Fold one source's hop row into a running minimum: sets
     * out[d] = min(out[d], hops(src, d)) for every device d in
     * [0, numDevices()). Reads the built route storage's row directly
     * (one storage check per row instead of one per pair), so
     * "distance to the nearest of a growing device set" costs O(devices)
     * per added device. @p out must hold numDevices() entries.
     */
    void minHopsFrom(DeviceId src, int *out) const;

    /** Sum of per-link latencies along the deterministic route. */
    double pathLatency(DeviceId src, DeviceId dst) const;

    /**
     * Σ 1/bandwidth over the deterministic route's links: the Eq.(1)
     * store-and-forward volume term per byte (0 when src == dst).
     */
    double pathInvBandwidthSum(DeviceId src, DeviceId dst) const;

    /** Human-readable topology name for bench output. */
    virtual std::string name() const = 0;

    /**
     * Index of the directed link src→dst, or -1 when the two nodes are
     * not directly connected. O(1) hash lookup.
     */
    LinkId linkBetween(NodeId src, NodeId dst) const;

    /**
     * Select the all-pairs route storage. A configuration hook, NOT
     * thread-safe: call before the topology is shared (System::make
     * applies SystemConfig::routeStorage here). Any previously built
     * storage is dropped and rebuilt lazily under the new policy.
     */
    void setRouteStorage(RouteStorageKind kind);

    /** The configured storage policy (Auto until overridden). */
    RouteStorageKind routeStorage() const { return storageKind_; }

    /** The policy Auto resolves to for this topology's size. */
    RouteStorageKind activeRouteStorage() const
    {
        if (storageKind_ != RouteStorageKind::Auto)
            return storageKind_;
        return numDevices() >= kNextHopAutoThreshold
            ? RouteStorageKind::NextHop
            : RouteStorageKind::CsrArena;
    }

    /** True once the compressed next-hop storage is built and serving. */
    bool usingNextHopRoutes() const { return nextHops_.built(); }

    /**
     * Heap bytes of the built route storage (whichever representation
     * is active; builds it first). scale_smoke and the tests compare
     * it across storages.
     */
    std::size_t routeStorageBytes() const;

    /**
     * Test hook: answer every query by folding nextHop() instead of
     * from a route storage (the 16k-device scale_smoke and the tests'
     * uncached reference).
     */
    void disableRouteCache();

    /**
     * Eagerly build the all-pairs route storage (no-op when it is
     * already built or disabled). Invoked at topology finalization by
     * System::make so a System can be shared as shared_ptr<const>
     * across sweep worker threads with no lazy state left to race on.
     */
    void finalizeRoutes() const { ensureRoutes(); }

  protected:
    Topology() = default;

    /** Append a link and register it in the adjacency index. */
    LinkId addLink(NodeId src, NodeId dst, double bandwidth, double latency);

    /**
     * Drop any built route storage so the next query rebuilds it from
     * nextHop(). For subclasses whose link state changes after
     * construction (the fault overlay mutates bandwidths and reroutes
     * around failed links); a finalized base topology stays immutable.
     * NOT thread-safe — callers must quiesce route queries first, which
     * the engine guarantees by applying faults at iteration boundaries.
     */
    void invalidateRouteStorage();

    std::vector<Link> links_;

  private:
    /** Build the active route storage if absent and caching is enabled. */
    void ensureRoutes() const;

    // Per-source dst → link-id adjacency index (O(1) linkBetween).
    std::vector<std::unordered_map<NodeId, LinkId>> outIndex_;

    // Storage policy; resolved by activeRouteStorage() at build time.
    RouteStorageKind storageKind_ = RouteStorageKind::Auto;

    // Lazily built all-pairs storages (at most one is ever built);
    // mutable so const queries can build.
    mutable RouteTable routes_;
    mutable NextHopTable nextHops_;
    // Serialises the lazy build when several threads race on first use.
    mutable std::mutex routeBuildMutex_;
    // Backing storage for walk() while the cache is disabled.
    // Deliberately unguarded: the uncached mode is a single-threaded
    // hook (the serial 16k-device scale_smoke and the tests).
    mutable std::vector<LinkId> uncachedScratch_;
};

} // namespace moentwine

#endif // MOENTWINE_TOPOLOGY_TOPOLOGY_HH
