#include "policy/dynamic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace smtbal::policy {

void DynamicBalancerConfig::validate() const {
  SMTBAL_REQUIRE(high_priority >= 2 && high_priority <= 6,
                 "high_priority must be in 2..6");
  SMTBAL_REQUIRE(max_diff >= 1 && max_diff < high_priority,
                 "max_diff must be >= 1 and leave a valid low priority");
  SMTBAL_REQUIRE(wait_gap_threshold > 0.0 && wait_gap_threshold < 1.0,
                 "wait_gap_threshold must be in (0,1)");
  SMTBAL_REQUIRE(smoothing > 0.0 && smoothing <= 1.0,
                 "smoothing must be in (0,1]");
  SMTBAL_REQUIRE(warmup_epochs >= 0, "warmup_epochs must be >= 0");
}

DynamicBalancer::DynamicBalancer(DynamicBalancerConfig config)
    : config_(config) {
  config_.validate();
}

void DynamicBalancer::set_max_diff(int max_diff) {
  SMTBAL_REQUIRE(max_diff >= 1 && max_diff < config_.high_priority,
                 "max_diff must be >= 1 and leave a valid low priority");
  config_.max_diff = max_diff;
  for (auto& [core, gap] : gap_of_core_) {
    gap = std::clamp(gap, -config_.max_diff, config_.max_diff);
  }
  for (auto& [core, state] : wide_state_) {
    state.gap = std::min(state.gap, config_.max_diff);
  }
}

void DynamicBalancer::on_start(mpisim::EngineControl& control) {
  smoothed_wait_.assign(control.num_ranks(), 0.0);
  gap_of_core_.clear();
  wide_state_.clear();
  last_epoch_time_ = 0.0;
  for (std::size_t r = 0; r < control.num_ranks(); ++r) {
    control.set_rank_priority(RankId{static_cast<std::uint32_t>(r)},
                              smt::level(smt::kDefaultPriority));
  }
}

void DynamicBalancer::apply_gap(mpisim::EngineControl& control,
                                std::size_t first, std::size_t second,
                                int gap) {
  int prio_first = smt::level(smt::kDefaultPriority);
  int prio_second = smt::level(smt::kDefaultPriority);
  if (gap > 0) {
    prio_first = config_.high_priority;
    prio_second = config_.high_priority - gap;
  } else if (gap < 0) {
    prio_second = config_.high_priority;
    prio_first = config_.high_priority + gap;
  }
  rewrite(control, first, prio_first);
  rewrite(control, second, prio_second);
}

void DynamicBalancer::rewrite(mpisim::EngineControl& control, std::size_t rank,
                              int priority) {
  const RankId id{static_cast<std::uint32_t>(rank)};
  if (control.rank_priority(id) == priority) return;
  control.set_rank_priority(id, priority);
  ++adjustments_;
}

void DynamicBalancer::on_epoch(mpisim::EngineControl& control,
                               const mpisim::EpochReport& report) {
  SMTBAL_CHECK(report.ranks.size() == smoothed_wait_.size());

  const SimTime window = report.now - last_epoch_time_;
  last_epoch_time_ = report.now;
  if (window <= 0.0) return;

  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const double wait_fraction =
        std::clamp(report.ranks[r].wait / window, 0.0, 1.0);
    smoothed_wait_[r] = config_.smoothing * wait_fraction +
                        (1.0 - config_.smoothing) * smoothed_wait_[r];
  }
  if (report.epoch <= config_.warmup_epochs) return;

  // Group ranks per core; pairs use the paper's signed-gap controller,
  // wider cores (SMT4/SMT8) the favored-rank controller.
  std::map<std::uint32_t, std::vector<std::size_t>> ranks_by_core;
  const mpisim::Placement& placement = control.placement();
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    ranks_by_core[placement.cpu_of_rank[r].core.value()].push_back(r);
  }

  for (const auto& [core, ranks] : ranks_by_core) {
    if (ranks.size() > 2) {
      balance_wide(control, core, ranks);
      continue;
    }
    if (ranks.size() != 2) continue;
    const std::size_t a = ranks[0];
    const std::size_t b = ranks[1];
    // A context reading priority 0 hosts no process any more (the rank
    // exited and the idle loop shut the thread off): nothing to balance.
    if (control.rank_priority(RankId{static_cast<std::uint32_t>(a)}) == 0 ||
        control.rank_priority(RankId{static_cast<std::uint32_t>(b)}) == 0) {
      continue;
    }
    int& gap = gap_of_core_[core];

    // Positive signal: rank a waits more than rank b, so b is the
    // bottleneck and the gap should move in b's favour (downward).
    const double signal = smoothed_wait_[a] - smoothed_wait_[b];
    if (signal > config_.wait_gap_threshold) {
      gap = std::max(gap - 1, -config_.max_diff);
    } else if (signal < -config_.wait_gap_threshold) {
      gap = std::min(gap + 1, config_.max_diff);
    }
    apply_gap(control, a, b, gap);
  }
}

void DynamicBalancer::balance_wide(mpisim::EngineControl& control,
                                   std::uint32_t core,
                                   const std::vector<std::size_t>& ranks) {
  // A context reading priority 0 hosts no process any more: once any
  // core-mate exits, stop steering the survivors (same rule as pairs).
  for (const std::size_t r : ranks) {
    if (control.rank_priority(RankId{static_cast<std::uint32_t>(r)}) == 0) {
      return;
    }
  }

  // The rank that waits least is the core's bottleneck; the spread between
  // the least- and most-waiting ranks is the imbalance signal.
  std::size_t bottleneck = ranks[0];
  double min_wait = smoothed_wait_[ranks[0]];
  double max_wait = min_wait;
  for (const std::size_t r : ranks) {
    if (smoothed_wait_[r] < min_wait) {
      min_wait = smoothed_wait_[r];
      bottleneck = r;
    }
    max_wait = std::max(max_wait, smoothed_wait_[r]);
  }

  WideCoreState& state = wide_state_[core];
  if (max_wait - min_wait > config_.wait_gap_threshold) {
    if (state.favored != bottleneck) {
      // New bottleneck: restart from the smallest gap (Case D lesson —
      // widen only after observing the result).
      state.favored = bottleneck;
      state.gap = 1;
    } else {
      state.gap = std::min(state.gap + 1, config_.max_diff);
    }
  } else {
    state.gap = std::max(state.gap - 1, 0);
  }

  for (const std::size_t r : ranks) {
    int prio = smt::level(smt::kDefaultPriority);
    if (state.gap > 0) {
      prio = r == state.favored ? config_.high_priority
                                : config_.high_priority - state.gap;
    }
    rewrite(control, r, prio);
  }
}

}  // namespace smtbal::policy
