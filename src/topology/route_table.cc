#include "topology/topology.hh"

#include "common/logging.hh"

namespace moentwine {

RouteTable &
RouteTable::operator=(const RouteTable &other)
{
    if (this == &other)
        return *this;
    devices_ = other.devices_;
    disabled_ = other.disabled_;
    offsets_ = other.offsets_;
    paths_ = other.paths_;
    latency_ = other.latency_;
    invBwSum_ = other.invBwSum_;
    built_.store(other.built_.load(std::memory_order_acquire),
                 std::memory_order_release);
    return *this;
}

RouteTable &
RouteTable::operator=(RouteTable &&other) noexcept
{
    if (this == &other)
        return *this;
    devices_ = other.devices_;
    disabled_ = other.disabled_;
    offsets_ = std::move(other.offsets_);
    paths_ = std::move(other.paths_);
    latency_ = std::move(other.latency_);
    invBwSum_ = std::move(other.invBwSum_);
    built_.store(other.built_.load(std::memory_order_acquire),
                 std::memory_order_release);
    other.built_.store(false, std::memory_order_release);
    return *this;
}

void
RouteTable::build(const Topology &topo)
{
    const int devices = topo.numDevices();
    MOE_ASSERT(devices > 0, "route table over an empty topology");
    devices_ = devices;

    const auto pairs = static_cast<std::size_t>(devices) *
        static_cast<std::size_t>(devices);
    offsets_.assign(pairs + 1, 0);
    latency_.assign(pairs, 0.0);
    invBwSum_.assign(pairs, 0.0);
    paths_.clear();
    // Arena size is the sum of all-pairs hop counts; one hop per pair
    // is a safe floor that avoids most of the regrowth during build.
    paths_.reserve(pairs);

    std::size_t p = 0;
    for (DeviceId src = 0; src < devices; ++src) {
        for (DeviceId dst = 0; dst < devices; ++dst, ++p) {
            // Scalars fold link by link in path order, the order
            // NextHopTable::build() uses too: bitwise equal doubles.
            double lat = 0.0;
            double invBw = 0.0;
            topo.foldRoute(src, dst, [&](LinkId l, const Link &link) {
                lat += link.latency;
                invBw += 1.0 / link.bandwidth;
                paths_.push_back(l);
            });
            offsets_[p + 1] = paths_.size();
            latency_[p] = lat;
            invBwSum_[p] = invBw;
        }
    }
    // Publish the finished arena: pairs with built() acquire loads.
    built_.store(true, std::memory_order_release);
}

std::size_t
RouteTable::storageBytes() const
{
    return offsets_.capacity() * sizeof(std::size_t) +
        paths_.capacity() * sizeof(LinkId) +
        latency_.capacity() * sizeof(double) +
        invBwSum_.capacity() * sizeof(double);
}

void
RouteTable::reset()
{
    built_.store(false, std::memory_order_release);
    devices_ = 0;
    offsets_.clear();
    offsets_.shrink_to_fit();
    paths_.clear();
    paths_.shrink_to_fit();
    latency_.clear();
    latency_.shrink_to_fit();
    invBwSum_.clear();
    invBwSum_.shrink_to_fit();
}

void
RouteTable::disableCache()
{
    disabled_ = true;
    reset();
}

} // namespace moentwine
