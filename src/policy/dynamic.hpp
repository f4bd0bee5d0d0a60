// Dynamic per-iteration balancer — the paper's proposed future work
// (§VII-C, §VIII), implemented.
//
// The paper observes that SIESTA's bottleneck rank changes from iteration
// to iteration, so a static priority assignment can only capture the
// average behaviour ("a good balancing mechanism would prioritize P1 in
// the i-th and P4 in the (i+1)-th iteration"). This policy reacts at
// every synchronisation epoch using the *wait-time gap* of the two ranks
// sharing each core as its control signal: the rank that waits less is
// the core's bottleneck, so the priority gap is stepped by one level in
// its favour; when both ranks wait about equally the gap is stepped back
// toward zero. Using wait time (not compute time) makes the controller
// convergent: once balanced, the signal vanishes and priorities stop
// moving. The gap is clamped to `max_diff` — the paper's Case D shows
// the super-linear penalty of over-prioritising.
#pragma once

#include <map>
#include <vector>

#include "mpisim/hooks.hpp"
#include "mpisim/phase.hpp"

namespace smtbal::policy {

struct DynamicBalancerConfig {
  /// Priority of a core's favored rank while a gap is applied.
  int high_priority = 6;
  /// Maximum priority gap. The conservative default of 1 follows the
  /// paper's Case D lesson: the starved thread's penalty grows
  /// super-linearly with the gap, so an adaptive policy should widen it
  /// only when it can also observe the result.
  int max_diff = 1;
  /// Minimum smoothed wait-fraction difference before stepping the gap.
  double wait_gap_threshold = 0.12;
  /// Exponential smoothing for per-rank wait fractions (1 = last epoch
  /// only).
  double smoothing = 0.5;
  /// Epochs to observe before the first adjustment.
  int warmup_epochs = 1;

  void validate() const;
};

class DynamicBalancer final : public mpisim::BalancePolicy {
 public:
  explicit DynamicBalancer(DynamicBalancerConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "dynamic"; }

  void on_start(mpisim::EngineControl& control) override;
  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override;

  /// Number of priority rewrites performed so far.
  [[nodiscard]] std::uint64_t adjustments() const { return adjustments_; }

  /// Re-bounds the gap ceiling while the controller is live. POWER5
  /// decode weights are relative within a core, so an outer (node-level)
  /// balancer speeds up a lagging node by *widening* its cores' allowed
  /// gap, not by shifting all priorities up (a uniform shift is a no-op).
  /// Live gaps beyond the new ceiling are clamped; the next epoch
  /// re-applies priorities. Throws InvalidArgument on an out-of-range
  /// ceiling (same bounds as DynamicBalancerConfig::max_diff).
  void set_max_diff(int max_diff);

 private:
  void apply_gap(mpisim::EngineControl& control, std::size_t first,
                 std::size_t second, int gap);
  /// Sets `rank`'s priority, counting an adjustment only on a change.
  void rewrite(mpisim::EngineControl& control, std::size_t rank, int priority);
  void balance_wide(mpisim::EngineControl& control, std::uint32_t core,
                    const std::vector<std::size_t>& ranks);

  /// N>2 contexts per core: the single favored (bottleneck) rank holds
  /// `high_priority` and everyone else `high_priority - gap`.
  struct WideCoreState {
    std::size_t favored = static_cast<std::size_t>(-1);
    int gap = 0;
  };

  DynamicBalancerConfig config_;
  std::vector<double> smoothed_wait_;  ///< wait fraction per rank
  /// Current signed gap per 2-way core: >0 favours the lower-numbered rank
  /// of the pair, <0 the higher-numbered one.
  std::map<std::uint32_t, int> gap_of_core_;
  /// State per core with more than two ranks (SMT4/SMT8 chips).
  std::map<std::uint32_t, WideCoreState> wide_state_;
  SimTime last_epoch_time_ = 0.0;
  std::uint64_t adjustments_ = 0;
};

}  // namespace smtbal::policy
