#include "network/traffic.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace moentwine {

double
flowTime(const Topology &topo, DeviceId src, DeviceId dst, double bytes)
{
    if (src == dst)
        return 0.0;
    // Eq.(1): each hop stores and forwards the full payload, so the
    // total is bytes × Σ 1/bw plus the summed link latencies — both
    // precomputed per pair by the route cache.
    return bytes * topo.pathInvBandwidthSum(src, dst) +
        topo.pathLatency(src, dst);
}

PhaseTraffic::PhaseTraffic(const Topology &topo)
    : topo_(&topo), volume_(topo.links().size(), 0.0)
{
}

void
PhaseTraffic::retarget(const Topology &topo)
{
    MOE_ASSERT(topo.links().size() == volume_.size(),
               "retarget across topologies with different link sets");
    topo_ = &topo;
    clear();
}

void
PhaseTraffic::clear()
{
    std::fill(volume_.begin(), volume_.end(), 0.0);
    maxPathLatency_ = 0.0;
    totalFlowBytes_ = 0.0;
}

void
PhaseTraffic::addFlow(DeviceId src, DeviceId dst, double bytes)
{
    MOE_ASSERT(bytes >= 0.0, "flow volume must be non-negative");
    if (src == dst || bytes == 0.0)
        return;
    // Walk the deterministic route without borrowing an arena slice:
    // under the CSR storage the walker iterates the cached view, under
    // the compressed storage it follows next-hop links — either way no
    // allocation happens.
    for (const LinkId l : topo_->walk(src, dst)) {
        MOE_ASSERT(l >= 0 && static_cast<std::size_t>(l) < volume_.size(),
                   "bad link id in route walk");
        volume_[static_cast<std::size_t>(l)] += bytes;
    }
    // The per-pair latency scalar is summed in the walk's link order,
    // so it is bitwise the sum this walk would accumulate.
    maxPathLatency_ = std::max(maxPathLatency_, topo_->pathLatency(src, dst));
    totalFlowBytes_ += bytes;
}

void
PhaseTraffic::addFlows(const std::vector<Flow> &flows)
{
    for (const Flow &f : flows)
        addFlow(f.src, f.dst, f.bytes);
}

void
PhaseTraffic::merge(const PhaseTraffic &other)
{
    MOE_ASSERT(volume_.size() == other.volume_.size(),
               "merging phases over different topologies");
    for (std::size_t i = 0; i < volume_.size(); ++i)
        volume_[i] += other.volume_[i];
    maxPathLatency_ = std::max(maxPathLatency_, other.maxPathLatency_);
    totalFlowBytes_ += other.totalFlowBytes_;
}

double
PhaseTraffic::serializationTime() const
{
    double worst = 0.0;
    for (std::size_t i = 0; i < volume_.size(); ++i) {
        if (volume_[i] <= 0.0)
            continue;
        worst = std::max(worst, volume_[i] / topo_->links()[i].bandwidth);
    }
    return worst;
}

double
PhaseTraffic::linkVolume(LinkId l) const
{
    MOE_ASSERT(l >= 0 && static_cast<std::size_t>(l) < volume_.size(),
               "bad link id");
    return volume_[static_cast<std::size_t>(l)];
}

double
PhaseTraffic::maxLinkVolume() const
{
    double worst = 0.0;
    for (double v : volume_)
        worst = std::max(worst, v);
    return worst;
}

double
PhaseTraffic::totalByteHops() const
{
    double total = 0.0;
    for (double v : volume_)
        total += v;
    return total;
}

int
PhaseTraffic::busyLinkCount() const
{
    int n = 0;
    for (double v : volume_)
        if (v > 0.0)
            ++n;
    return n;
}

std::vector<bool>
PhaseTraffic::hotLinks(double fraction) const
{
    MOE_ASSERT(fraction >= 0.0 && fraction <= 1.0,
               "hot-link fraction must be in [0, 1]");
    const double peak = maxLinkVolume();
    std::vector<bool> hot(volume_.size(), false);
    if (peak <= 0.0)
        return hot;
    for (std::size_t i = 0; i < volume_.size(); ++i)
        hot[i] = volume_[i] > fraction * peak;
    return hot;
}

double
PhaseTraffic::idleBytes(LinkId l, double window) const
{
    MOE_ASSERT(window >= 0.0, "idle window must be non-negative");
    const Link &link = topo_->links()[static_cast<std::size_t>(l)];
    const double budget = link.bandwidth * window -
        volume_[static_cast<std::size_t>(l)];
    return std::max(0.0, budget);
}

std::string
PhaseTraffic::heatmapAscii(const MeshTopology &mesh) const
{
    const double peak = maxLinkVolume();
    auto digit = [&](DeviceId a, DeviceId b) -> char {
        const LinkId fwd = mesh.linkBetween(a, b);
        const LinkId rev = mesh.linkBetween(b, a);
        if (fwd < 0 || rev < 0)
            return '?';
        const double v = linkVolume(fwd) + linkVolume(rev);
        if (peak <= 0.0 || v <= 0.0)
            return '.';
        const int level = std::min(
            9, static_cast<int>(std::floor(v / (2.0 * peak) * 10.0)));
        return static_cast<char>('0' + level);
    };

    std::string out;
    for (int r = 0; r < mesh.rows(); ++r) {
        // Device row with horizontal links.
        for (int c = 0; c < mesh.cols(); ++c) {
            out += 'o';
            if (c + 1 < mesh.cols()) {
                out += '-';
                out += digit(mesh.deviceAt(r, c), mesh.deviceAt(r, c + 1));
                out += '-';
            }
        }
        out += '\n';
        // Vertical links row.
        if (r + 1 < mesh.rows()) {
            for (int c = 0; c < mesh.cols(); ++c) {
                out += digit(mesh.deviceAt(r, c), mesh.deviceAt(r + 1, c));
                if (c + 1 < mesh.cols())
                    out += "   ";
            }
            out += '\n';
        }
    }
    return out;
}

} // namespace moentwine
