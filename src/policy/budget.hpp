// Per-node priority-budget redistribution.
//
// Treats the sum of hardware-priority levels a node may hand out as a
// consumable budget (the analogue of a per-node power cap, redistributed
// the way arXiv 1410.6824 shifts power between nodes): on_start installs
// the same cap on every node, and each epoch the policy (1) moves one
// unit of budget from the node whose ranks wait the most (it is ahead —
// its ranks idle at the global collectives) to the node whose ranks wait
// the least (the cluster's laggard), and (2) spends each node's headroom
// on its local bottleneck rank, raising it one level at a time, while
// reclaiming levels from the node's most-waiting rank when the budget is
// exhausted. On a single node the transfer step is a no-op and the
// policy degenerates to a budget-capped priority balancer.
#pragma once

#include <cstdint>
#include <vector>

#include "mpisim/hooks.hpp"
#include "policy/cadence.hpp"

namespace smtbal::policy {

struct BudgetRedistributionConfig {
  /// Budget installed per node above its starting priority sum: the
  /// headroom the redistribution plays with.
  int headroom = 2;
  /// Smoothing of per-rank wait fractions and the adjustment epochs.
  Cadence cadence{.warmup_epochs = 2, .interval = 2, .smoothing = 0.5};
  /// Minimum smoothed wait-fraction spread before acting, both between
  /// nodes (transfer) and within a node (spend/reclaim).
  double gap_threshold = 0.08;
  /// Ceiling for a boosted rank (the OS interface accepts 1..6).
  int max_priority = 6;
  /// Floor for a reclaimed rank.
  int min_priority = 2;

  void validate() const;
};

class BudgetRedistributionPolicy final : public mpisim::BalancePolicy {
 public:
  explicit BudgetRedistributionPolicy(BudgetRedistributionConfig config = {});

  [[nodiscard]] std::string_view name() const override {
    return "budget-redistribution";
  }

  void on_start(mpisim::EngineControl& control) override;
  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override;

  /// Priority rewrites (spends + reclaims) issued so far.
  [[nodiscard]] std::uint64_t adjustments() const { return adjustments_; }

 private:
  BudgetRedistributionConfig config_;
  std::vector<double> smoothed_wait_;  ///< per rank
  SimTime last_epoch_time_ = 0.0;
  std::uint64_t adjustments_ = 0;
};

}  // namespace smtbal::policy
