#include "policy/budget.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace smtbal::policy {

void BudgetRedistributionConfig::validate() const {
  SMTBAL_REQUIRE(headroom >= 0,
                 "BudgetRedistributionConfig.headroom must be >= 0");
  cadence.validate();
  SMTBAL_REQUIRE(gap_threshold >= 0.0,
                 "BudgetRedistributionConfig.gap_threshold must be >= 0");
  SMTBAL_REQUIRE(min_priority >= 1 && max_priority <= 6 &&
                     min_priority <= max_priority,
                 "BudgetRedistributionConfig priorities must satisfy "
                 "1 <= min_priority <= max_priority <= 6");
}

BudgetRedistributionPolicy::BudgetRedistributionPolicy(
    BudgetRedistributionConfig config)
    : config_(config) {
  config_.validate();
}

void BudgetRedistributionPolicy::on_start(mpisim::EngineControl& control) {
  // Every node gets the same cap: the worst-off node's starting sum plus
  // the configured headroom (install_budgets refuses anything lower).
  int max_sum = 0;
  for (std::uint32_t n = 0; n < control.num_nodes(); ++n) {
    max_sum = std::max(max_sum, control.node_priority_sum(n));
  }
  control.install_budgets(max_sum + config_.headroom);
  smoothed_wait_.assign(control.num_ranks(), 0.0);
  last_epoch_time_ = 0.0;
}

void BudgetRedistributionPolicy::on_epoch(mpisim::EngineControl& control,
                                          const mpisim::EpochReport& report) {
  const SimTime epoch_len = report.now - last_epoch_time_;
  last_epoch_time_ = report.now;
  if (epoch_len <= 0.0) return;
  SMTBAL_CHECK(report.ranks.size() == smoothed_wait_.size());
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    if (report.ranks[r].priority == 0) continue;
    const double frac =
        std::min(1.0, std::max(0.0, report.ranks[r].wait / epoch_len));
    smoothed_wait_[r] = config_.cadence.smooth(smoothed_wait_[r], frac);
  }
  if (!config_.cadence.due(report.epoch)) return;

  const std::uint32_t num_nodes = control.num_nodes();
  const auto ranks_of_node = live_ranks_by_node(control, report);
  std::vector<double> node_wait(num_nodes, 0.0);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    if (ranks_of_node[n].empty()) continue;
    double sum = 0.0;
    for (const std::size_t r : ranks_of_node[n]) sum += smoothed_wait_[r];
    node_wait[n] = sum / static_cast<double>(ranks_of_node[n].size());
  }

  // (1) Cross-node: one budget unit flows from the most-waiting node (it
  // is ahead of the pack) to the least-waiting one (the laggard).
  if (num_nodes > 1) {
    std::uint32_t laggard = 0;
    std::uint32_t leader = 0;
    for (std::uint32_t n = 1; n < num_nodes; ++n) {
      if (ranks_of_node[n].empty()) continue;
      if (node_wait[n] < node_wait[laggard]) laggard = n;
      if (node_wait[n] > node_wait[leader]) leader = n;
    }
    if (leader != laggard &&
        node_wait[leader] - node_wait[laggard] > config_.gap_threshold &&
        control.node_budget(leader) - 1 >= control.node_priority_sum(leader)) {
      control.transfer_budget(leader, laggard, 1);
    }
  }

  // (2) Within each node: spend headroom on the bottleneck rank; when the
  // budget is exhausted, reclaim a level from the most-waiting rank so
  // the next adjustment round has something to spend.
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    const std::vector<std::size_t>& ranks = ranks_of_node[n];
    if (ranks.size() < 2) continue;
    std::size_t bottleneck = ranks.front();
    std::size_t ahead = ranks.front();
    for (const std::size_t r : ranks) {
      if (smoothed_wait_[r] < smoothed_wait_[bottleneck]) bottleneck = r;
      if (smoothed_wait_[r] > smoothed_wait_[ahead]) ahead = r;
    }
    if (smoothed_wait_[ahead] - smoothed_wait_[bottleneck] <
        config_.gap_threshold) {
      continue;
    }
    const RankId slow{static_cast<std::uint32_t>(bottleneck)};
    const RankId fast{static_cast<std::uint32_t>(ahead)};
    const int slow_prio = control.rank_priority(slow);
    const int fast_prio = control.rank_priority(fast);
    const int budget = control.node_budget(n);
    const int sum = control.node_priority_sum(n);
    if (slow_prio < config_.max_priority && sum + 1 <= budget) {
      control.set_rank_priority(slow, slow_prio + 1);
      ++adjustments_;
    } else if (fast_prio > config_.min_priority) {
      control.set_rank_priority(fast, fast_prio - 1);
      ++adjustments_;
    }
  }
}

}  // namespace smtbal::policy
