/**
 * @file
 * Compressed next-hop route storage and the on-the-fly path walker.
 *
 * The CSR route arena (RouteTable) stores every (src, dst) path
 * explicitly, so its footprint grows O(devices² × avg hops) — beyond
 * roughly a thousand devices the arena dominates process RSS. The
 * NextHopTable tabulates the topology's routing function itself,
 * Topology::nextHop(), in O(devices × nodes): one packed next-hop
 * entry per (destination, node) pair,
 * plus the per-pair scalars (hop count, path latency, Σ 1/bandwidth)
 * that keep the O(1) Topology::hops()/pathLatency()/
 * pathInvBandwidthSum() queries alive. The few consumers that actually
 * iterate a route's links reconstruct it on the fly with a PathWalker
 * cursor — one load per hop, no allocation, no borrowed arena.
 *
 * The matrix is destination-major: the nodes-long column of one
 * destination is contiguous, and each entry packs the outgoing link id
 * beside the node that link leads to (two 16-bit fields, 4 bytes). A
 * walk therefore reads within one contiguous column (4 KB at 1024
 * nodes) and never dereferences the link array. The 16-bit fields cap
 * a topology at 65535 links and 65535 nodes; build() asserts both (the
 * largest system in the repo, a 16384-device 4×(64×64) mesh, has 64896
 * links).
 *
 * build() fills each destination's column in O(nodes) from nextHop(),
 * then walks the column from every source to sum the per-pair scalars
 * link by link in path order: exactly the order RouteTable::build()
 * folds them, so a topology answers bitwise identical latency and
 * Σ 1/bandwidth sums under either storage. A walk longer than
 * numNodes() hops means nextHop() cycles; build() aborts on it.
 */

#ifndef MOENTWINE_TOPOLOGY_NEXT_HOP_TABLE_HH
#define MOENTWINE_TOPOLOGY_NEXT_HOP_TABLE_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "topology/graph.hh"

namespace moentwine {

class Topology;

/**
 * One next-hop matrix entry: the link leaving a node toward a
 * destination and the node that link arrives at. Packed into 4 bytes
 * so a destination's column of a 1024-node system is 4 KB.
 */
struct NextHopEntry
{
    /** Outgoing link id; kNoHop when no route crosses this slot. */
    std::uint16_t link;
    /** Node the link leads to (links()[link].dst). */
    std::uint16_t node;

    /** Fill value of slots no route crosses (and the id bound). */
    static constexpr std::uint16_t kNoHop = 0xFFFF;
};

/**
 * All-pairs compressed route storage: a devices×nodes destination-major
 * next-hop matrix and devices×devices scalar tables. Route queries that
 * need the link sequence follow column() hop by hop (see PathWalker);
 * scalar queries are one load, exactly like the CSR table.
 */
class NextHopTable
{
  public:
    NextHopTable() = default;

    // Copies/moves transfer the table data and the built flag, for the
    // same reason RouteTable's do: topology factories return by value;
    // concurrently used topologies are shared by pointer, never copied.
    NextHopTable(const NextHopTable &other) { *this = other; }
    NextHopTable(NextHopTable &&other) noexcept
    {
        *this = std::move(other);
    }
    NextHopTable &operator=(const NextHopTable &other);
    NextHopTable &operator=(NextHopTable &&other) noexcept;

    /**
     * Precompute the next-hop matrix from topo.nextHop() and the
     * per-pair scalars by walking it. Asserts that link and node ids
     * fit the 16-bit entry fields and that no walk cycles.
     */
    void build(const Topology &topo);

    /**
     * True once build() has run. An acquire load: a true result makes
     * the matrix built by another thread visible, so worker threads
     * share one finalized topology without per-query synchronisation.
     */
    bool built() const { return built_.load(std::memory_order_acquire); }

    /** Drop the table (rebuilds lazily on next use). */
    void reset();

    /**
     * The next-hop column of destination @p dst, indexed by node: entry
     * n is the link leaving node n toward @p dst and the node it leads
     * to (kNoHop when n == dst or n has no route to @p dst).
     */
    const NextHopEntry *column(DeviceId dst) const
    {
        return nextHop_.data() +
            static_cast<std::size_t>(dst) * static_cast<std::size_t>(nodes_);
    }

    /** Hop count of the deterministic route (0 when src == dst). */
    int hops(DeviceId src, DeviceId dst) const
    {
        return hops_[pairIndex(src, dst)];
    }

    /** out[d] = min(out[d], hops(src, d)) for every device d. */
    void minHopsFrom(DeviceId src, int *out) const
    {
        const int *row = hops_.data() + pairIndex(src, 0);
        for (int d = 0; d < devices_; ++d)
            out[d] = std::min(out[d], row[d]);
    }

    /** Sum of per-link latencies along the deterministic route. */
    double latency(DeviceId src, DeviceId dst) const
    {
        return latency_[pairIndex(src, dst)];
    }

    /** Σ 1/bandwidth over the deterministic route's links. */
    double invBandwidthSum(DeviceId src, DeviceId dst) const
    {
        return invBwSum_[pairIndex(src, dst)];
    }

    /** Heap footprint of the built table (route-storage bytes). */
    std::size_t storageBytes() const;

  private:
    std::size_t pairIndex(DeviceId src, DeviceId dst) const
    {
        return static_cast<std::size_t>(src) *
                   static_cast<std::size_t>(devices_) +
               static_cast<std::size_t>(dst);
    }

    int devices_ = 0;
    int nodes_ = 0;
    // Release-published by build(); see built().
    std::atomic<bool> built_{false};
    std::vector<NextHopEntry> nextHop_; // devices × nodes, dst-major
    std::vector<int> hops_;       // devices × devices
    std::vector<double> latency_; // devices × devices
    std::vector<double> invBwSum_; // devices × devices
};

/**
 * Forward cursor over one deterministic route, uniform across the two
 * route storages: over the CSR arena it iterates the borrowed view;
 * over the next-hop table it follows the destination's column until
 * the destination. Construction and iteration never allocate, which is
 * what keeps PhaseTraffic::addFlow() allocation-free under either
 * storage. Obtain one from Topology::walk().
 */
class PathWalker
{
  public:
    /** Walk a contiguous precomputed path (CSR arena or scratch). */
    explicit PathWalker(PathView view)
        : cur_(view.begin()), end_(view.end())
    {
    }

    /** Walk the next-hop matrix from @p src toward @p dst. */
    PathWalker(const NextHopTable &table, DeviceId src, DeviceId dst)
        : column_(table.column(dst)), node_(src), dst_(dst)
    {
    }

    /** Advance one hop into @p out; false when the walk is finished. */
    bool next(LinkId &out)
    {
        if (column_ == nullptr) {
            if (cur_ == end_)
                return false;
            out = *cur_++;
            return true;
        }
        if (node_ == dst_)
            return false;
        const NextHopEntry e = column_[static_cast<std::size_t>(node_)];
        // kNoHop is the matrix fill value: no route ever crossed this
        // (node, dst) pair. Unreachable on connected topologies, but
        // fail loudly instead of walking off the table.
        MOE_ASSERT(e.link != NextHopEntry::kNoHop,
                   "no next hop toward the walked destination");
        node_ = e.node;
        out = e.link;
        return true;
    }

    /** Sentinel for range-for support. */
    struct End
    {
    };

    /** Single-pass input iterator driving next(). */
    class Iterator
    {
      public:
        explicit Iterator(PathWalker &walker) : walker_(&walker)
        {
            live_ = walker_->next(link_);
        }

        LinkId operator*() const { return link_; }

        Iterator &operator++()
        {
            live_ = walker_->next(link_);
            return *this;
        }

        bool operator!=(End) const { return live_; }

      private:
        PathWalker *walker_;
        LinkId link_ = -1;
        bool live_ = false;
    };

    Iterator begin() { return Iterator(*this); }
    End end() const { return End{}; }

  private:
    // Next-hop mode state (column_ non-null).
    const NextHopEntry *column_ = nullptr;
    NodeId node_ = 0;
    DeviceId dst_ = 0;
    // Contiguous-view mode state (column_ null).
    const LinkId *cur_ = nullptr;
    const LinkId *end_ = nullptr;
};

} // namespace moentwine

#endif // MOENTWINE_TOPOLOGY_NEXT_HOP_TABLE_HH
