#include "balancer/ni_balancer.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace moentwine {

NiBalancer::NiBalancer(const Mapping &mapping, double expertBytes)
    : mapping_(mapping),
      expertBytes_(expertBytes),
      planner_(mapping.topology()),
      budget_(mapping.topology().links().size(), -1.0)
{
    MOE_ASSERT(expertBytes > 0.0, "expert size must be positive");
    budgetTouched_.reserve(budget_.size());
}

int
NiBalancer::plan(const std::vector<double> &expertLoads,
                 ExpertPlacement &placement)
{
    // Plan the target with Algorithm 1 and adopt it immediately, then
    // retract the replicas whose weights still have to travel — they
    // activate on completion.
    const auto steps = planner_.rebalance(expertLoads, placement);
    const auto devices = static_cast<std::size_t>(placement.numDevices());
    const std::size_t keys =
        static_cast<std::size_t>(placement.numExperts()) * devices;
    if (pendingKey_.empty())
        pendingKey_.assign(keys, 0);
    MOE_ASSERT(pendingKey_.size() == keys,
               "NiBalancer re-planned a differently shaped placement");
    int enqueued = 0;
    for (const MigrationStep &step : steps) {
        placement.removeReplica(step.expert, step.dstDevice);
        char &inFlight = pendingKey_[pendingKeyOf(step, devices)];
        if (inFlight)
            continue; // keep the slot reserved; transfer in flight
        Pending p;
        p.step = step;
        p.segments = decompose(step.srcDevice, step.dstDevice);
        MOE_ASSERT(!p.segments.empty(),
                   "migration between co-located replicas");
        p.delivered.assign(p.segments.size(), 0.0);
        pending_.push_back(std::move(p));
        inFlight = 1;
        ++enqueued;
    }
    return enqueued;
}

std::vector<MigrationStep>
NiBalancer::pendingSteps() const
{
    std::vector<MigrationStep> steps;
    steps.reserve(pending_.size());
    for (const Pending &p : pending_)
        steps.push_back(p.step);
    return steps;
}

std::vector<NiBalancer::Segment>
NiBalancer::decompose(DeviceId src, DeviceId dst) const
{
    MOE_ASSERT(mapping_.topology().hops(src, dst) > 0,
               "empty migration route");
    std::vector<Segment> segments;
    const auto &links = mapping_.topology().links();
    const int devices = mapping_.numDevices();
    // Links touching internal switch nodes (no FTD of their own)
    // inherit the flow-level classification.
    const bool flowLocal = mapping_.ftdOf(src) == mapping_.ftdOf(dst);
    for (const LinkId l : mapping_.topology().walk(src, dst)) {
        const Link &link = links[static_cast<std::size_t>(l)];
        bool local = flowLocal;
        if (link.src < devices && link.dst < devices)
            local = mapping_.ftdOf(link.src) == mapping_.ftdOf(link.dst);
        if (segments.empty() || segments.back().local != local)
            segments.push_back(Segment{{}, local});
        segments.back().links.push_back(l);
    }
    return segments;
}

int
NiBalancer::advanceAttention(const PhaseTraffic &traffic, double window,
                             ExpertPlacement &placement)
{
    return advance(traffic, window, true, placement);
}

int
NiBalancer::advanceMoe(const PhaseTraffic &traffic, double window,
                       ExpertPlacement &placement)
{
    return advance(traffic, window, false, placement);
}

int
NiBalancer::advance(const PhaseTraffic &traffic, double window, bool local,
                    ExpertPlacement &placement)
{
    if (pending_.empty() || window <= 0.0)
        return 0;

    // Idle byte budget per link for this window, shared FCFS. Links
    // are priced on first use; only those are reset afterwards.
    auto budgetOf = [&](LinkId l) -> double & {
        auto &b = budget_[static_cast<std::size_t>(l)];
        if (b < 0.0) {
            b = traffic.idleBytes(l, window);
            budgetTouched_.push_back(l);
        }
        return b;
    };

    for (Pending &p : pending_) {
        for (std::size_t i = 0; i < p.segments.size(); ++i) {
            const Segment &seg = p.segments[i];
            if (seg.local != local)
                continue;
            const double upstream =
                (i == 0 ? expertBytes_ : p.delivered[i - 1]) -
                p.delivered[i];
            if (upstream <= 0.0)
                continue;
            double capacity = upstream;
            for (const LinkId l : seg.links)
                capacity = std::min(capacity, budgetOf(l));
            if (capacity <= 0.0)
                continue;
            for (const LinkId l : seg.links)
                budgetOf(l) -= capacity;
            p.delivered[i] += capacity;
            hiddenBytes_ += capacity;
        }
    }

    for (const LinkId l : budgetTouched_)
        budget_[static_cast<std::size_t>(l)] = -1.0;
    budgetTouched_.clear();

    // Activate completed migrations.
    const auto devices = static_cast<std::size_t>(placement.numDevices());
    int completed = 0;
    const double done = expertBytes_ * (1.0 - 1e-9);
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->delivered.back() >= done) {
            const MigrationStep &s = it->step;
            if (!placement.hosts(s.dstDevice, s.expert) &&
                placement.freeSlots(s.dstDevice) > 0) {
                placement.addReplica(s.expert, s.dstDevice);
            }
            pendingKey_[pendingKeyOf(s, devices)] = 0;
            it = pending_.erase(it);
            ++completed;
        } else {
            ++it;
        }
    }
    return completed;
}

} // namespace moentwine
