// Two-level (node x SMT-priority) balancer.
//
// The outer loop watches per-node progress through the observer bus's
// epoch reports: a node whose ranks wait *less* than the cluster average
// is the laggard — everyone else is waiting for it at the global
// collectives. POWER5 decode weights are relative within a core, so the
// outer loop cannot "boost the whole node" by shifting priorities up (a
// uniform shift leaves every decode share unchanged); what it can do is
// *widen the authority* of the lagging node's inner controller — raise
// its max priority gap so the node's bottleneck ranks pull further ahead
// of their core-mates — and narrow it back once the node catches up
// (bounded by the paper's Case D over-prioritisation lesson).
//
// The inner loop is NodeInners: one DynamicBalancer per node, scoped to
// that node's ranks, running the same per-core wait-gap controller as the
// standalone `dynamic` policy. Node membership is read from the engine at
// start, so the balancer needs no placement of its own and runs unchanged
// on a flat (one-node) engine.
//
// With one node, or max_node_boost = 0, the outer loop never acts and
// this is exactly a per-node DynamicBalancer — the bench's "flat
// per-node priorities" baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "mpisim/hooks.hpp"
#include "policy/node_inners.hpp"

namespace smtbal::policy {

struct TwoLevelBalancerConfig {
  /// Per-node inner controller configuration.
  DynamicBalancerConfig inner{};
  /// How far the outer loop may widen a lagging node's gap ceiling above
  /// inner.max_diff. 0 disables the outer level entirely.
  int max_node_boost = 1;
  /// Minimum smoothed node-vs-cluster wait-fraction difference before
  /// stepping a node's boost.
  double node_gap_threshold = 0.08;
  /// Exponential smoothing for per-node wait fractions (1 = last epoch
  /// only).
  double smoothing = 0.5;
  /// The outer loop first adjusts at epoch `warmup_epochs + 1` (1-based).
  int warmup_epochs = 2;

  void validate() const;
};

class TwoLevelBalancer final : public mpisim::BalancePolicy {
 public:
  explicit TwoLevelBalancer(TwoLevelBalancerConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "two-level"; }

  void on_start(mpisim::EngineControl& control) override;
  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override;

  /// Current outer-loop boost of `node` (0 = inner defaults).
  [[nodiscard]] int node_boost(std::uint32_t node) const {
    return boost_[node];
  }
  /// Total outer-loop boost adjustments so far.
  [[nodiscard]] std::uint64_t node_adjustments() const {
    return node_adjustments_;
  }

 private:
  TwoLevelBalancerConfig config_;
  NodeInners inners_;
  std::vector<double> node_wait_;  ///< smoothed mean wait fraction per node
  std::vector<int> boost_;
  SimTime last_epoch_time_ = 0.0;
  std::uint64_t node_adjustments_ = 0;
};

}  // namespace smtbal::policy
