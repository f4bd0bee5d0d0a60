// Multi-node cluster engine: M nodes, each with its own smt::Chip +
// os::KernelModel, coupled by cross-node messages priced through
// cluster::Interconnect. ClusterEngine is an overlay on mpisim::Engine,
// which owns the nodes, the event loop and every EngineControl actuation;
// this class adds only what is specific to clusters: per-node chips derived
// from ClusterConfig::NodeShape and their samplers, interconnect pricing
// of messages and migrations (with per-node migration counters), the
// comm-graph observer, and the NodeStats aggregation.
//
// Every node starts from the same base configuration (ClusterConfig.node)
// — the paper's cluster-of-identical-OpenPower-710s scenario — and nodes
// may additionally override their chip *shape* (core count, SMT width,
// clock scale) through ClusterConfig::NodeShape, modelling heterogeneous
// machines. Nodes whose derived chip equals the base chip share one
// ThroughputSampler, so a chip load measured on any such node is memoised
// for all of them; differently-shaped nodes get their own samplers (one
// per distinct shape) attached to the base sampler's shared cache, which
// is collision-safe because ChipLoad keys fold in the chip shape
// (smt::chip_shape_seed). A cluster of M=1 reproduces the flat engine
// bit-for-bit: the overlay's cost model, observer and policy context
// change nothing at one node (tests/cluster_test.cpp and the simcheck
// flat-vs-cluster differential lock this in).
#pragma once

#include <memory>
#include <vector>

#include "cluster/comm_graph.hpp"
#include "cluster/interconnect.hpp"
#include "cluster/placement.hpp"
#include "mpisim/engine.hpp"

namespace smtbal::cluster {

struct ClusterConfig {
  /// Per-node overrides of the base chip shape. Only the rate-relevant
  /// shape may vary per node; micro-architecture, memory hierarchy,
  /// kernel flavor, network and noise stay uniform (ClusterConfig.node).
  struct NodeShape {
    std::uint32_t num_cores = 0;         ///< 0 = inherit node.chip.num_cores
    std::uint32_t threads_per_core = 0;  ///< 0 = inherit node.chip SMT width
    /// Multiplies the base chip's clock frequency (a slower or faster
    /// node); must be positive and finite.
    double clock_scale = 1.0;

    [[nodiscard]] bool is_default() const {
      return num_cores == 0 && threads_per_core == 0 && clock_scale == 1.0;
    }
    [[nodiscard]] bool operator==(const NodeShape&) const = default;
  };

  /// Cross-node rank migration pricing (migrate_rank): the migrating
  /// rank's resident state crosses the interconnect like one large
  /// message — occupying the directed link, so migrations contend with
  /// application traffic — and the rank stalls until it lands.
  struct MigrationConfig {
    /// Bytes of process state shipped per migration (address space +
    /// communicator state). 0 = free, instantaneous migration.
    std::uint64_t resident_state_bytes = std::uint64_t{1} << 24;  // 16 MiB

    [[nodiscard]] bool operator==(const MigrationConfig&) const = default;
  };

  std::uint32_t num_nodes = 1;
  /// Per-node base configuration, shared by every node: chip, sampler
  /// options, kernel flavor, intra-node network, noise profile (seeds are
  /// offset per node), barrier latency, runaway guards.
  mpisim::EngineConfig node{};
  /// Per-node shape overrides, indexed by node; shorter than num_nodes
  /// extends with default (= base) shapes, so {} is the homogeneous
  /// cluster. Entries beyond num_nodes are rejected by validate().
  std::vector<NodeShape> node_shapes{};
  InterconnectConfig interconnect{};
  MigrationConfig migration{};

  /// True when every node runs the base chip unchanged.
  [[nodiscard]] bool homogeneous() const;
  /// Node `n`'s shape override (default-constructed past node_shapes).
  [[nodiscard]] NodeShape shape_of(std::uint32_t n) const;
  /// Node `n`'s derived chip: the base chip with shape_of(n) applied
  /// (num_cores also resizes the memory hierarchy; clock_scale multiplies
  /// frequency_ghz).
  [[nodiscard]] smt::ChipConfig node_chip(std::uint32_t n) const;

  void validate() const;
};

/// Per-node aggregate of the per-rank metrics (also serialised into the
/// smtbal.bench.run/3 JSONL records).
struct NodeStats {
  SimTime compute = 0.0;
  SimTime wait = 0.0;
  SimTime spin = 0.0;
  SimTime preempted = 0.0;
  std::size_t ranks = 0;
  /// Cross-node migrations actuated with this node as the source, the
  /// resident-state bytes they shipped, and the total time the departing
  /// ranks stalled while their state crossed the interconnect.
  std::uint64_t migrations = 0;
  std::uint64_t bytes_migrated = 0;
  SimTime migration_stall = 0.0;
};

struct ClusterRunResult {
  /// The flat per-rank result (trace, metrics, exec time, imbalance) —
  /// same shape as a single-node run, rank-indexed globally.
  mpisim::RunResult flat;
  std::vector<NodeStats> nodes;
  std::vector<std::uint32_t> node_of_rank;

  ClusterRunResult() = default;
  ClusterRunResult(ClusterRunResult&&) = default;
  ClusterRunResult& operator=(ClusterRunResult&&) = default;
  ClusterRunResult(const ClusterRunResult&) = delete;
  ClusterRunResult& operator=(const ClusterRunResult&) = delete;
};

class ClusterEngine final : public mpisim::Engine {
 public:
  ClusterEngine(mpisim::Application app, ClusterPlacement placement,
                ClusterConfig config = {});

  /// Shares a sampler with other runs of the same per-node chip
  /// configuration (keeps the cycle-level memoisation warm across cases,
  /// like the flat Engine's shared-sampler constructor).
  ClusterEngine(mpisim::Application app, ClusterPlacement placement,
                ClusterConfig config,
                std::shared_ptr<smt::ThroughputSampler> sampler);

  /// Runs the application to completion (mpisim::Engine::run) and adds the
  /// per-node aggregates. May be called once per engine. The installed
  /// policy sees global rank ids and the within-node placement; per-node
  /// policies (policy::TwoLevelBalancer, policy::RepartitionPolicy) slice
  /// it by node through policy::NodeInners.
  ClusterRunResult run();

  /// Summed counters of the samplers this engine built for node shapes
  /// other than the base chip (zero on a homogeneous cluster). They live
  /// and die with the engine, so a caller that totals its own shared
  /// samplers' stats must add these to count every measurement.
  [[nodiscard]] smt::SamplerStats shape_sampler_stats() const;

  /// The run's accumulated rank-to-rank traffic (CommGraphObserver);
  /// empty before run().
  [[nodiscard]] const CommGraph* comm_graph() const override {
    return &comm_observer_.graph();
  }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  /// The live link-contention state (read-only) — lets invariant checkers
  /// watch per-link busy-until monotonicity across a run.
  [[nodiscard]] const Interconnect& interconnect() const {
    return interconnect_;
  }

 private:
  /// Validates `config` and derives each node's chip and sampler. Nodes
  /// with the base chip share `sampler`, so a load measured on any of them
  /// is memoised for all of them. Each distinct overridden shape gets its
  /// own sampler (measure() runs on that shape's chip), attached to the
  /// base sampler's shared cache — shape-folded keys keep the share
  /// collision-free.
  static Nodes derive_nodes(const ClusterConfig& config,
                            std::shared_ptr<smt::ThroughputSampler> sampler);
  /// Intra-node transfers through the node network, cross-node ones
  /// through the contended interconnect.
  std::unique_ptr<mpisim::MessageCostModel> make_cost_model() override;
  mpisim::SimObserver* overlay_observer() override { return &comm_observer_; }
  /// The resident state rides the stateful interconnect as one transfer on
  /// the (from, to) path, so migrations queue behind — and delay —
  /// application messages sharing the links; the source node's counters
  /// record the migration.
  SimTime migration_landing(SimTime now, std::uint32_t from_node,
                            std::uint32_t to_node) override;

  ClusterConfig config_;
  Interconnect interconnect_;
  CommGraphObserver comm_observer_;
  /// Per-source-node migration accounting, folded into NodeStats by
  /// run().
  struct MigrationCounters {
    std::uint64_t migrations = 0;
    std::uint64_t bytes = 0;
    SimTime stall = 0.0;
  };
  std::vector<MigrationCounters> migration_of_node_;
};

}  // namespace smtbal::cluster
