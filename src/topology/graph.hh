/**
 * @file
 * Basic graph vocabulary shared by the topology headers: node/device/
 * link identifiers, the Link record, the borrowed PathView range, and
 * followNextHops(), the one route walk every route storage and
 * uncached query is folded from. Split out of topology.hh so the
 * route-storage headers (next_hop_table.hh) can name these without a
 * circular include.
 */

#ifndef MOENTWINE_TOPOLOGY_GRAPH_HH
#define MOENTWINE_TOPOLOGY_GRAPH_HH

#include <cstddef>

#include "common/logging.hh"

namespace moentwine {

/** Identifier of a compute device or internal switch node. */
using NodeId = int;
/** Identifier of a compute device (subset of NodeId space). */
using DeviceId = int;
/** Index into Topology::links(). */
using LinkId = int;

/**
 * One unidirectional link. Bandwidth is bytes/second for this direction;
 * latency is the per-traversal link latency of Eq.(1) in the paper.
 */
struct Link
{
    NodeId src;
    NodeId dst;
    double bandwidth;
    double latency;
};

/**
 * Follow a next-hop function from @p src to @p dst: next(n, to) names
 * the link leaving node n toward @p dst (-1 when there is none) and
 * sets @p to to the node it reaches, and onLink(id, link) runs once
 * per hop in path order. Returns the hop count, 0 when src == dst or
 * next(src) is -1 (no route). Aborts when the walk dead-ends short of
 * @p dst or runs past @p maxHops hops (a routing cycle) instead of
 * mis-routing or spinning.
 */
template <class Next, class OnLink>
int
followNextHops(NodeId src, DeviceId dst, int maxHops, const Link *links,
               Next &&next, OnLink &&onLink)
{
    int hops = 0;
    for (NodeId n = src; n != dst; ++hops) {
        NodeId to = n;
        const LinkId l = next(n, to);
        if (l < 0) {
            MOE_ASSERT(n == src, "next hop dead-ends short of the "
                                 "destination");
            break;
        }
        MOE_ASSERT(hops < maxHops, "routing cycle: walk is longer than "
                                   "numNodes() hops");
        onLink(l, links[static_cast<std::size_t>(l)]);
        n = to;
    }
    return hops;
}

/**
 * Non-owning view of a deterministic route: a contiguous LinkId range
 * borrowed from the owning topology's CSR route arena (valid for the
 * topology's lifetime) or, with the route cache disabled, from the
 * per-topology scratch that the next uncached walk() overwrites.
 */
class PathView
{
  public:
    using value_type = LinkId;
    using const_iterator = const LinkId *;

    PathView() = default;

    PathView(const LinkId *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }

  private:
    const LinkId *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace moentwine

#endif // MOENTWINE_TOPOLOGY_GRAPH_HH
