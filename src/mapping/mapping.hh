/**
 * @file
 * Abstract parallelism mapping: how attention-layer TP groups and
 * MoE-layer experts are placed on the devices of a topology.
 *
 * A mapping owns three structures:
 *  - TP groups in ring order (the all-reduce rings of the attention
 *    layer). Group g's rank r device holds the r-th token shard of its
 *    group after a reduce-scatter;
 *  - FTDs (Full Token Domains): the minimal device sets that together
 *    hold tokens from every TP group. Their geometry governs all-to-all
 *    cost (Section IV-A of the paper);
 *  - the dispatch-source rule: which device supplies a token to an
 *    expert device, which depends on whether the all-gather half of the
 *    all-reduce was retained (Fig. 9).
 *
 * Concrete mappings: BaselineMapping (contiguous TP blocks),
 * ErMapping (entwined strided TP groups), HierarchicalErMapping
 * (per-wafer ER with hierarchical all-reduce), ClusterMapping (GPU
 * baselines on switch topologies).
 */

#ifndef MOENTWINE_MAPPING_MAPPING_HH
#define MOENTWINE_MAPPING_MAPPING_HH

#include <mutex>
#include <string>
#include <vector>

#include "network/collectives.hh"
#include "network/traffic_accum.hh"
#include "topology/topology.hh"

namespace moentwine {

/**
 * Borrowed view of one dispatch-source memo table (see
 * Mapping::dispatchSourceRows()). The table is laid out
 * [group][destination][rank], so row(g, d) points at the tp sources
 * serving group g's shards to destination d, contiguous by rank.
 */
class DispatchSourceRows
{
  public:
    DispatchSourceRows(const DeviceId *table, int devices, int tp)
        : table_(table), devices_(devices), tp_(tp)
    {
    }

    /** Sources of ranks [0, tp) of @p group toward @p dest. */
    const DeviceId *row(int group, DeviceId dest) const
    {
        return table_ +
            (static_cast<std::size_t>(group) *
                 static_cast<std::size_t>(devices_) +
             static_cast<std::size_t>(dest)) *
            static_cast<std::size_t>(tp_);
    }

  private:
    const DeviceId *table_;
    int devices_;
    int tp_;
};

/**
 * Base class of all parallelism mappings.
 */
class Mapping
{
  public:
    virtual ~Mapping() = default;

    /** The topology this mapping is placed on. */
    const Topology &topology() const { return topo_; }

    /** Number of compute devices. */
    int numDevices() const { return topo_.numDevices(); }

    /** Tensor-parallel degree (size of each TP group). */
    int tp() const { return static_cast<int>(tpGroups_.front().size()); }

    /** Data-parallel degree (number of TP groups). */
    int dp() const { return static_cast<int>(tpGroups_.size()); }

    /** TP groups, each in all-reduce ring order. */
    const std::vector<std::vector<DeviceId>> &tpGroups() const
    {
        return tpGroups_;
    }

    /** TP group (DP shard) index of a device. */
    int tpGroupOf(DeviceId d) const;

    /** Ring position of a device within its TP group. */
    int tpRankOf(DeviceId d) const;

    /** Full Token Domains (disjoint device sets covering all groups). */
    const std::vector<std::vector<DeviceId>> &ftds() const { return ftds_; }

    /** FTD index of a device. */
    int ftdOf(DeviceId d) const;

    /**
     * Every FTD ordered as a short-step collective ring (serpentine on
     * meshes, stored order elsewhere). Memoised eagerly at finalize()
     * — FTDs are fixed — so the engine's ESP expert all-reduce and any
     * other FTD-wide collective never re-derive ring orders per call.
     */
    const std::vector<std::vector<DeviceId>> &ftdRings() const
    {
        return ftdRings_;
    }

    /** Mapping name for bench output. */
    virtual std::string name() const = 0;

    /**
     * Whether concurrent all-reduce rings use the time-staggered
     * entwined schedule (true for ER-style mappings).
     */
    virtual bool staggeredRings() const = 0;

    /**
     * Attention-layer all-reduce over all TP groups concurrently.
     * @param bytesPerGroup Full activation tensor bytes of one group.
     * @param withAllGather Retain the all-gather half (Fig. 9); when
     *        false only the reduce-scatter runs.
     */
    CollectiveTiming allReduce(double bytesPerGroup,
                               bool withAllGather) const;

    /**
     * Allocation-free allReduce(): identical timing, with the per-link
     * traffic accumulated into @p scratch (engine-owned, reused across
     * iterations) instead of a freshly allocated PhaseTraffic.
     * Forwards to the topology-explicit overload below with the
     * construction topology.
     */
    double allReduceInto(double bytesPerGroup, bool withAllGather,
                         CollectiveScratch &scratch) const;

    /**
     * allReduceInto() with this mapping's ring schedule charged over
     * @p onTopo instead of the construction topology. The virtual
     * customisation point (HER-Mapping overrides it with the
     * hierarchical two-stage schedule). The fault layer passes the
     * degraded overlay here — identical link ids, mutated bandwidths
     * and routes — so all-reduce cost reacts to degraded links without
     * rebuilding the mapping.
     */
    virtual double allReduceInto(const Topology &onTopo,
                                 double bytesPerGroup, bool withAllGather,
                                 CollectiveScratch &scratch) const;

    /**
     * Device that supplies tokens of (TP group, shard rank) to an
     * expert device during dispatch (and receives the combined output).
     *
     * @param group    Owning TP group of the token shard.
     * @param rank     Shard rank within the group (reduce-scatter slot).
     * @param expertDevice Destination expert device.
     * @param allGatherRetained With all-gather, every group member holds
     *        the shard so the topologically nearest one serves; without
     *        it only the rank-owner can.
     */
    virtual DeviceId dispatchSource(int group, int rank,
                                    DeviceId expertDevice,
                                    bool allGatherRetained) const;

    /**
     * Memoised dispatchSource(): identical result, answered from a
     * lazily built (group, destination, rank) table so the token
     * router's per-iteration hot path performs no route walks and no
     * allocation. Mappings are immutable after construction, so the
     * table never invalidates; the lazy build is once-guarded so
     * engines on different threads may share one const mapping.
     */
    DeviceId dispatchSourceCached(int group, int rank,
                                  DeviceId expertDevice,
                                  bool allGatherRetained) const;

    /**
     * The whole dispatchSource() memo for one all-gather mode, built on
     * first use like dispatchSourceCached(). Callers hoist this out of
     * their loops: row lookups are then inline loads with no once-guard
     * and no bounds checks, and a row holds every rank's source for one
     * (group, destination) contiguously.
     */
    DispatchSourceRows dispatchSourceRows(bool allGatherRetained) const;

    /**
     * Eagerly build every lazy cache a const mapping query could
     * otherwise populate on first use: the topology's all-pairs route
     * table and both dispatch-source memo tables. System::make calls
     * this so a System handed to sweep worker threads as
     * shared_ptr<const> has no cold caches left to contend on.
     */
    void prewarmCaches() const;

    /**
     * True when dispatchSource() ignores the shard rank under the
     * given all-gather mode (with the all-gather retained, every group
     * member holds every shard, so the chosen source depends only on
     * the destination). The token router's aggregated path collapses
     * its TP-rank loop into one contribution per replica when this
     * holds. Mappings with rank-dependent sources (HER's per-wafer
     * mirrors) must override to return false.
     */
    virtual bool dispatchSourceRankInvariant(bool allGatherRetained) const
    {
        return allGatherRetained;
    }

    /**
     * Traffic-accumulator storage policy the token router applies to
     * this mapping's systems (see TrafficStorageKind). A configuration
     * hook, not runtime state: System::make sets it once before the
     * mapping is shared across threads — NOT thread-safe against
     * concurrent routeTokens calls.
     */
    void setTrafficStorage(TrafficStorageKind kind)
    {
        trafficStorage_ = kind;
    }

    /** The configured traffic-accumulator policy (may be Auto). */
    TrafficStorageKind trafficStorage() const { return trafficStorage_; }

    /** The storage the configured policy resolves to for this system. */
    TrafficStorageKind activeTrafficStorage() const
    {
        return TrafficAccumulator::resolve(trafficStorage_, numDevices());
    }

    /**
     * Whether dispatch sources are confined to the destination's FTD.
     * ER-style mappings return true: every FTD holds exactly one
     * member of every TP group, and serving from it keeps all-to-all
     * traffic strictly domain-local even when a neighbouring domain's
     * member is physically closer (Section IV-A: "confining
     * communication to this domain").
     */
    virtual bool confineDispatchToFtd() const { return false; }

    /**
     * Dispatch-source member of a TP group for a destination device:
     * the FTD-local member when the mapping confines dispatch,
     * otherwise the topologically nearest member (ties prefer the
     * destination's FTD, then the lower id).
     */
    DeviceId nearestGroupMember(int group, DeviceId to) const;

    /**
     * Volume reduction factor for a dispatch/combine flow, modelling
     * hierarchical all-to-all optimisations (DeepSpeed-MoE style): on
     * switch clusters, tokens heading to several experts on the same
     * remote node cross the inter-node fabric once, shrinking the
     * cross-node volume by N·(1−(1−1/N)^k)/k. Mesh mappings impose no
     * routing restriction and return 1.
     *
     * @param src  Flow source device.
     * @param dst  Flow destination device.
     * @param topk Experts activated per token.
     */
    virtual double dispatchDedupFactor(DeviceId src, DeviceId dst,
                                       int topk) const;

  protected:
    explicit Mapping(const Topology &topo);

    /**
     * Build the reverse indices; must be called by every concrete
     * constructor after populating tpGroups_ and ftds_.
     */
    void finalize();

    const Topology &topo_;
    std::vector<std::vector<DeviceId>> tpGroups_;
    std::vector<std::vector<DeviceId>> ftds_;

  private:
    /** Fill @p table with all (group, rank, destination) sources. */
    void buildDispatchTable(bool allGatherRetained,
                            std::vector<DeviceId> &table) const;

    TrafficStorageKind trafficStorage_ = TrafficStorageKind::Auto;
    std::vector<int> groupOf_;
    std::vector<int> rankOf_;
    std::vector<int> ftdIndexOf_;
    // FTD collective rings, derived once in finalize().
    std::vector<std::vector<DeviceId>> ftdRings_;
    // dispatchSource memo, one table per allGatherRetained value,
    // indexed [(group · devices + destination) · tp + rank] so one
    // (group, destination) row holds every rank's source; built on
    // first use with that flag. once-guarded so concurrent first use
    // from sweep workers is safe.
    mutable std::once_flag dispatchOnceAg_;
    mutable std::once_flag dispatchOnceNoAg_;
    mutable std::vector<DeviceId> dispatchSrcAg_;
    mutable std::vector<DeviceId> dispatchSrcNoAg_;
};

} // namespace moentwine

#endif // MOENTWINE_MAPPING_MAPPING_HH
