// Adaptive repartitioning balancer: cross-node rank migration driven by
// fractional load imbalance, composed with per-node SMT priority tuning.
//
// This is the two-level dynamic load balancing direction of HemoCell's
// LoadBalancer (arXiv 1911.06714) grafted onto the paper's SMT machine:
// the inner level is NodeInners, the per-node DynamicBalancers that
// two-level also drives (hardware priorities retune seats in place),
// and the outer level watches `calculateFractionalLoadImbalance()`-style
// node load skew — FLI = max_node_load / mean_node_load − 1 over
// smoothed per-rank compute — and, when it crosses `threshold`,
// repartitions the rank graph across nodes with the built-in multilevel
// partitioner (cluster/partition.hpp), migrating ranks through
// EngineControl::migrate_rank.
//
// Guard rails, each from a failure mode of naive repartitioning:
//   * hysteresis — after a wave the trigger disarms until FLI falls
//     below threshold − hysteresis, so borderline imbalance cannot
//     thrash migrations back and forth;
//   * budget — a hard cap on total migrations per run (each one ships
//     resident_state_bytes across the interconnect and stalls the rank);
//   * overlap mapping — partitioner parts are matched to nodes by
//     current-assignment overlap (capacity permitting), so a wave moves
//     only the ranks that must move.
//
// On a flat engine or a one-node cluster the outer level never fires and
// this is exactly the per-node dynamic balancer — which keeps the
// flat-vs-cluster(M=1) differential bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "mpisim/hooks.hpp"
#include "policy/node_inners.hpp"

namespace smtbal::policy {

struct RepartitionConfig {
  /// FLI trigger: repartition when max_node_load/mean − 1 exceeds this.
  double threshold = 0.15;
  /// Re-arm only once FLI has fallen below threshold − hysteresis.
  double hysteresis = 0.05;
  /// Hard cap on migrations over the whole run; a wave needing more
  /// moves than the remaining budget is skipped outright (a partial
  /// repartition can be worse than none).
  int budget = 16;
  /// Epochs between FLI evaluations.
  int interval = 2;
  /// First evaluation at the first multiple of `interval` above this.
  int warmup_epochs = 1;
  /// Exponential smoothing for per-rank compute loads (1 = last epoch
  /// only).
  double smoothing = 0.5;
  /// Balance slack handed to the partitioner.
  double tolerance = 0.15;
  /// Per-node inner priority controller.
  DynamicBalancerConfig inner{};

  void validate() const;
};

class RepartitionPolicy final : public mpisim::BalancePolicy {
 public:
  explicit RepartitionPolicy(RepartitionConfig config = {});

  [[nodiscard]] std::string_view name() const override {
    return "repartition";
  }

  void on_start(mpisim::EngineControl& control) override;
  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override;

 private:
  /// Evaluates FLI and, when triggered, partitions and migrates.
  void maybe_repartition(mpisim::EngineControl& control);

  RepartitionConfig config_;
  NodeInners inners_;
  /// Smoothed per-rank compute seconds per epoch (global rank order).
  std::vector<double> smoothed_;
  bool have_loads_ = false;
  bool armed_ = true;
  int epochs_seen_ = 0;
  int migrations_done_ = 0;
  std::uint64_t waves_ = 0;
};

}  // namespace smtbal::policy
