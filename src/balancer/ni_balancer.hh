/**
 * @file
 * Non-invasive Balancer (NI-Balancer, Section V of the paper).
 *
 * NI-Balancer plans migrations with the topology-aware Algorithm 1 but
 * never executes them on the critical path. Each planned weight copy is
 * decomposed along its mesh route into alternating segments:
 *  - *local* segments (links whose endpoints share an FTD) drain during
 *    the attention phase, when all-reduce traffic leaves intra-FTD
 *    links cold;
 *  - *global* segments (links crossing FTDs) drain during the MoE
 *    phase, when all-to-all traffic is confined within FTDs and the
 *    inter-FTD links idle (Fig. 11).
 *
 * Every phase the engine reports the phase's traffic heatmap and time
 * window; pending migrations consume only each link's *idle* byte
 * budget (bandwidth × window − phase volume), shared first-come
 * first-served. Bytes progress store-and-forward through the segment
 * chain, and a migration activates its replica only once the final
 * segment has delivered all bytes — so balancing is slightly delayed
 * but costs zero iteration latency.
 *
 * With β = 0 the Eq.(2) trigger fires on most iterations, so plan() and
 * the per-phase advance() are both hot. The balancer therefore owns its
 * TopologyAwareBalancer (whose PlanScratch keeps the nearest-replica
 * hop rows and the before-snapshot across plans) and re-plans the
 * caller's placement in place; "already in flight" is an O(1) lookup
 * in an experts × devices flag table; and the per-link idle budget is a
 * member array that each phase resets only where it priced a link.
 * Steady-state advance() calls perform no heap allocation.
 */

#ifndef MOENTWINE_BALANCER_NI_BALANCER_HH
#define MOENTWINE_BALANCER_NI_BALANCER_HH

#include <deque>
#include <string>
#include <vector>

#include "balancer/balancer.hh"
#include "balancer/placement.hh"
#include "mapping/mapping.hh"
#include "network/traffic.hh"

namespace moentwine {

/**
 * Hidden multi-step expert migration scheduler.
 */
class NiBalancer
{
  public:
    /**
     * @param mapping     Mapping providing FTD structure and topology.
     * @param expertBytes Weight bytes of one expert.
     */
    NiBalancer(const Mapping &mapping, double expertBytes);

    /** Balancer name for bench output. */
    std::string name() const { return "Non-invasive"; }

    /**
     * Re-plan the target placement (Algorithm 1) and enqueue the weight
     * copies as pending hidden migrations. The placement is updated
     * immediately for dropped stale replicas and for copies that need
     * no transfer; replicas requiring weight movement activate later,
     * as their transfers complete.
     *
     * @return Number of new migrations enqueued.
     */
    int plan(const std::vector<double> &expertLoads,
             ExpertPlacement &placement);

    /**
     * Drain local segments during an attention phase.
     *
     * @param traffic   All-reduce traffic of the phase.
     * @param window    Phase duration (seconds).
     * @param placement Placement to activate completed replicas in.
     * @return Migrations completed during this phase.
     */
    int advanceAttention(const PhaseTraffic &traffic, double window,
                         ExpertPlacement &placement);

    /** Drain global segments during a MoE phase. @sa advanceAttention */
    int advanceMoe(const PhaseTraffic &traffic, double window,
                   ExpertPlacement &placement);

    /** Migrations still in flight. */
    std::size_t pendingCount() const { return pending_.size(); }

    /** The in-flight migrations' steps, in draining (FCFS) order. */
    std::vector<MigrationStep> pendingSteps() const;

    /** Total bytes moved invisibly so far. */
    double hiddenBytesMoved() const { return hiddenBytes_; }

  private:
    /** One contiguous run of same-class links along a migration route. */
    struct Segment
    {
        std::vector<LinkId> links;
        bool local; ///< true: intra-FTD (attention window)
    };

    /** A migration in flight. */
    struct Pending
    {
        MigrationStep step;
        std::vector<Segment> segments;
        /** Bytes delivered through the *end* of each segment. */
        std::vector<double> delivered;
    };

    /** Decompose a route into alternating local/global segments. */
    std::vector<Segment> decompose(DeviceId src, DeviceId dst) const;

    /** Shared draining logic for the two phase kinds. */
    int advance(const PhaseTraffic &traffic, double window, bool local,
                ExpertPlacement &placement);

    /** Index of (step.expert, step.dstDevice) in pendingKey_. */
    static std::size_t pendingKeyOf(const MigrationStep &step,
                                    std::size_t devices)
    {
        return static_cast<std::size_t>(step.expert) * devices +
               static_cast<std::size_t>(step.dstDevice);
    }

    const Mapping &mapping_;
    double expertBytes_;
    // Algorithm 1 planner, kept across plans so its PlanScratch rows
    // and snapshots are reused instead of reallocated per re-plan.
    TopologyAwareBalancer planner_;
    std::deque<Pending> pending_;
    // experts × devices flags: 1 while a copy of that expert to that
    // device is in pending_ (O(1) duplicate check on re-plan). Sized
    // on the first plan.
    std::vector<char> pendingKey_;
    // Per-link idle budget of the current phase (-1 = not yet priced)
    // and the links priced so far; advance() resets only those, so a
    // steady-state phase allocates nothing.
    std::vector<double> budget_;
    std::vector<LinkId> budgetTouched_;
    double hiddenBytes_ = 0.0;
};

} // namespace moentwine

#endif // MOENTWINE_BALANCER_NI_BALANCER_HH
