#include "topology/next_hop_table.hh"

#include <algorithm>

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

    // Destinations are filled in tiles of kTileDests so the columns a
    // tile's routes write (kTileDests × nodes entries) stay cached
    // while every source is visited; the result does not depend on the
    // visiting order.
    constexpr int kTileDests = 64;
    for (DeviceId dt = 0; dt < devices; dt += kTileDests) {
        const DeviceId dEnd = std::min(dt + kTileDests, devices);
        for (DeviceId src = 0; src < devices; ++src) {
            for (DeviceId dst = dt; dst < dEnd; ++dst) {
                const auto path = topo.computeRoute(src, dst);
                // Scalars accumulate link by link in path order — the
                // exact summation order of RouteTable::build(), so both
                // storages answer bitwise identical doubles.
                double lat = 0.0;
                double invBw = 0.0;
                NextHopEntry *col = nextHop_.data() +
                    static_cast<std::size_t>(dst) *
                        static_cast<std::size_t>(nodes_);
                for (const LinkId l : path) {
                    const Link &link = links[static_cast<std::size_t>(l)];
                    lat += link.latency;
                    invBw += 1.0 / link.bandwidth;
                    NextHopEntry &slot =
                        col[static_cast<std::size_t>(link.src)];
                    if (slot.link == NextHopEntry::kNoHop) {
                        slot.link = static_cast<std::uint16_t>(l);
                        slot.node = static_cast<std::uint16_t>(link.dst);
                    } else {
                        // Two routes crossing link.src toward dst must
                        // leave over the same link, or the compressed
                        // matrix cannot reproduce the arena's paths.
                        MOE_ASSERT(slot.link == l,
                                   "routing is not next-hop consistent");
                    }
                }
                const std::size_t p = static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(devices) +
                    static_cast<std::size_t>(dst);
                hops_[p] = static_cast<int>(path.size());
                latency_[p] = lat;
                invBwSum_[p] = invBw;
            }
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
