#include "topology/next_hop_table.hh"

#include "common/logging.hh"
#include "topology/topology.hh"

namespace moentwine {

NextHopTable &
NextHopTable::operator=(const NextHopTable &other)
{
    if (this == &other)
        return *this;
    devices_ = other.devices_;
    nodes_ = other.nodes_;
    nextHop_ = other.nextHop_;
    hops_ = other.hops_;
    latency_ = other.latency_;
    invBwSum_ = other.invBwSum_;
    built_.store(other.built_.load(std::memory_order_acquire),
                 std::memory_order_release);
    return *this;
}

NextHopTable &
NextHopTable::operator=(NextHopTable &&other) noexcept
{
    if (this == &other)
        return *this;
    devices_ = other.devices_;
    nodes_ = other.nodes_;
    nextHop_ = std::move(other.nextHop_);
    hops_ = std::move(other.hops_);
    latency_ = std::move(other.latency_);
    invBwSum_ = std::move(other.invBwSum_);
    built_.store(other.built_.load(std::memory_order_acquire),
                 std::memory_order_release);
    other.built_.store(false, std::memory_order_release);
    return *this;
}

void
NextHopTable::build(const Topology &topo)
{
    const int devices = topo.numDevices();
    MOE_ASSERT(devices > 0, "next-hop table over an empty topology");
    const auto &links = topo.links();
    // Ids must fit the 16-bit entry fields, with kNoHop kept free as
    // the fill value.
    MOE_ASSERT(links.size() <= NextHopEntry::kNoHop,
               "too many links for 16-bit next-hop entries");
    MOE_ASSERT(topo.numNodes() <= NextHopEntry::kNoHop,
               "too many nodes for 16-bit next-hop entries");
    devices_ = devices;
    nodes_ = topo.numNodes();
    MOE_ASSERT(nodes_ >= devices_, "devices must be a node-id prefix");

    const auto pairs = static_cast<std::size_t>(devices) *
        static_cast<std::size_t>(devices);
    nextHop_.assign(static_cast<std::size_t>(devices) *
                        static_cast<std::size_t>(nodes_),
                    NextHopEntry{NextHopEntry::kNoHop, NextHopEntry::kNoHop});
    hops_.assign(pairs, 0);
    latency_.assign(pairs, 0.0);
    invBwSum_.assign(pairs, 0.0);

    for (DeviceId dst = 0; dst < devices; ++dst) {
        NextHopEntry *col = nextHop_.data() +
            static_cast<std::size_t>(dst) * static_cast<std::size_t>(nodes_);
        for (NodeId n = 0; n < nodes_; ++n) {
            const LinkId l = topo.nextHop(n, dst);
            if (l >= 0) {
                col[n] = NextHopEntry{
                    static_cast<std::uint16_t>(l),
                    static_cast<std::uint16_t>(
                        links[static_cast<std::size_t>(l)].dst)};
            }
        }
        // Scalars fold link by link in path order (the column walked
        // from each source), the order RouteTable::build() uses too, so
        // both storages answer bitwise identical doubles. The walk
        // steps to each entry's packed node, so its only dependent
        // load per hop is the next column entry.
        const auto columnHop = [col](NodeId n, NodeId &to) {
            const NextHopEntry e = col[static_cast<std::size_t>(n)];
            to = e.node;
            return e.link == NextHopEntry::kNoHop ? LinkId{-1}
                                                  : LinkId{e.link};
        };
        for (DeviceId src = 0; src < devices; ++src) {
            double lat = 0.0;
            double invBw = 0.0;
            const int hops = followNextHops(
                src, dst, nodes_, links.data(), columnHop,
                [&](LinkId, const Link &link) {
                    lat += link.latency;
                    invBw += 1.0 / link.bandwidth;
                });
            const std::size_t p = static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(devices) +
                static_cast<std::size_t>(dst);
            hops_[p] = hops;
            latency_[p] = lat;
            invBwSum_[p] = invBw;
        }
    }
    // Publish the finished matrix: pairs with built() acquire loads.
    built_.store(true, std::memory_order_release);
}

void
NextHopTable::reset()
{
    built_.store(false, std::memory_order_release);
    devices_ = 0;
    nodes_ = 0;
    nextHop_.clear();
    nextHop_.shrink_to_fit();
    hops_.clear();
    hops_.shrink_to_fit();
    latency_.clear();
    latency_.shrink_to_fit();
    invBwSum_.clear();
    invBwSum_.shrink_to_fit();
}

std::size_t
NextHopTable::storageBytes() const
{
    return nextHop_.capacity() * sizeof(NextHopEntry) +
        hops_.capacity() * sizeof(int) +
        latency_.capacity() * sizeof(double) +
        invBwSum_.capacity() * sizeof(double);
}

} // namespace moentwine
