#include "policy/two_level.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace smtbal::policy {

void TwoLevelBalancerConfig::validate() const {
  inner.validate();
  SMTBAL_REQUIRE(max_node_boost >= 0, "max_node_boost must be >= 0");
  SMTBAL_REQUIRE(inner.max_diff + max_node_boost < inner.high_priority,
                 "inner.max_diff + max_node_boost must leave a valid low "
                 "priority (Case D: bound the widest gap)");
  SMTBAL_REQUIRE(node_gap_threshold > 0.0 && node_gap_threshold < 1.0,
                 "node_gap_threshold must be in (0,1)");
  SMTBAL_REQUIRE(smoothing > 0.0 && smoothing <= 1.0,
                 "smoothing must be in (0,1]");
  SMTBAL_REQUIRE(warmup_epochs >= 0, "warmup_epochs must be >= 0");
}

TwoLevelBalancer::TwoLevelBalancer(TwoLevelBalancerConfig config)
    : config_(config), inners_(config.inner) {
  config_.validate();
}

void TwoLevelBalancer::on_start(mpisim::EngineControl& control) {
  inners_.start(control);
  node_wait_.assign(control.num_nodes(), 0.0);
  boost_.assign(control.num_nodes(), 0);
  last_epoch_time_ = 0.0;
}

void TwoLevelBalancer::on_epoch(mpisim::EngineControl& control,
                                const mpisim::EpochReport& report) {
  const std::vector<std::vector<std::size_t>>& ranks_of_node =
      inners_.membership();
  const auto num_nodes = static_cast<std::uint32_t>(ranks_of_node.size());
  const SimTime window = report.now - last_epoch_time_;
  last_epoch_time_ = report.now;

  if (window > 0.0) {
    // Outer signal: a node whose ranks wait *less* than the cluster
    // average is the laggard (everyone else waits for it at the global
    // collectives).
    double cluster_mean = 0.0;
    std::uint32_t populated = 0;
    for (std::uint32_t n = 0; n < num_nodes; ++n) {
      if (ranks_of_node[n].empty()) continue;
      double sum = 0.0;
      for (const std::size_t r : ranks_of_node[n]) {
        sum += std::clamp(report.ranks[r].wait / window, 0.0, 1.0);
      }
      const double raw = sum / static_cast<double>(ranks_of_node[n].size());
      node_wait_[n] = config_.smoothing * raw +
                      (1.0 - config_.smoothing) * node_wait_[n];
      cluster_mean += node_wait_[n];
      ++populated;
    }
    if (populated > 0) cluster_mean /= static_cast<double>(populated);

    if (config_.max_node_boost > 0 && populated > 1 &&
        report.epoch > config_.warmup_epochs) {
      for (std::uint32_t n = 0; n < num_nodes; ++n) {
        if (ranks_of_node[n].empty()) continue;
        const double signal = cluster_mean - node_wait_[n];
        int& boost = boost_[n];
        const int before = boost;
        if (signal > config_.node_gap_threshold) {
          boost = std::min(boost + 1, config_.max_node_boost);
        } else if (signal < 0.0) {
          // Hysteresis band [0, threshold): hold the boost while the
          // node hovers near the mean, shed it once it stops lagging.
          boost = std::max(boost - 1, 0);
        }
        if (boost != before) {
          inners_.set_max_diff(n, config_.inner.max_diff + boost);
        }
      }
    }
  }

  inners_.drive(control, report);
}

}  // namespace smtbal::policy
