#include "cluster/balancer.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace smtbal::cluster {

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

TwoLevelBalancer::TwoLevelBalancer(const ClusterPlacement& placement,
                                   TwoLevelBalancerConfig config)
    : placement_(placement), config_(config) {
  config_.validate();
  std::uint32_t max_node = 0;
  for (const std::uint32_t node : placement_.node_of_rank) {
    max_node = std::max(max_node, node);
  }
  num_nodes_ = max_node + 1;
}

void TwoLevelBalancer::on_start(mpisim::EngineControl& control) {
  ranks_of_node_ = placement_.ranks_by_node(num_nodes_);
  node_controls_.clear();
  inners_.clear();
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    node_controls_.emplace_back(control, ranks_of_node_[n], placement_.within,
                                control.threads_per_core_of(n));
    inners_.emplace_back(config_.inner);
  }
  node_wait_.assign(num_nodes_, 0.0);
  boost_.assign(num_nodes_, 0);
  last_epoch_time_ = 0.0;
  node_adjustments_ = 0;
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    inners_[n].on_start(node_controls_[n]);
  }
}

void TwoLevelBalancer::on_epoch(mpisim::EngineControl& control,
                                const mpisim::EpochReport& report) {
  SMTBAL_CHECK(report.ranks.size() == placement_.size());
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    node_controls_[n].rebind(control);
  }

  const SimTime window = report.now - last_epoch_time_;
  last_epoch_time_ = report.now;

  if (window > 0.0) {
    // Outer signal: a node whose ranks wait *less* than the cluster
    // average is the laggard (everyone else waits for it at the global
    // collectives).
    double cluster_mean = 0.0;
    std::uint32_t populated = 0;
    std::vector<double> raw(num_nodes_, 0.0);
    for (std::uint32_t n = 0; n < num_nodes_; ++n) {
      if (ranks_of_node_[n].empty()) continue;
      double sum = 0.0;
      for (const std::size_t r : ranks_of_node_[n]) {
        sum += std::clamp(report.ranks[r].wait / window, 0.0, 1.0);
      }
      raw[n] = sum / static_cast<double>(ranks_of_node_[n].size());
      node_wait_[n] = config_.smoothing * raw[n] +
                      (1.0 - config_.smoothing) * node_wait_[n];
      cluster_mean += node_wait_[n];
      ++populated;
    }
    if (populated > 0) cluster_mean /= static_cast<double>(populated);

    if (config_.max_node_boost > 0 && populated > 1 &&
        report.epoch > config_.warmup_epochs) {
      for (std::uint32_t n = 0; n < num_nodes_; ++n) {
        if (ranks_of_node_[n].empty()) continue;
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
          ++node_adjustments_;
          inners_[n].set_max_diff(config_.inner.max_diff + boost);
        }
      }
    }
  }

  // Slice the global report per node and run each inner controller on
  // its node-local view.
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    if (ranks_of_node_[n].empty()) continue;
    mpisim::EpochReport local;
    local.epoch = report.epoch;
    local.now = report.now;
    local.ranks.reserve(ranks_of_node_[n].size());
    for (const std::size_t r : ranks_of_node_[n]) {
      local.ranks.push_back(report.ranks[r]);
    }
    inners_[n].on_epoch(node_controls_[n], local);
  }
}

}  // namespace smtbal::cluster
