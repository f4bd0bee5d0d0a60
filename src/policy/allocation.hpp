// Load-driven thread-to-core allocation.
//
// Where the priority balancers redistribute decode bandwidth *within* a
// core, this policy fixes the layer below them: which ranks share a core
// at all. It watches each rank's smoothed per-epoch compute time (its
// observed load) and re-packs the ranks of each node onto the node's
// cores with the classic longest-processing-time heuristic — heaviest
// rank first, each onto the currently least-loaded core with a free SMT
// seat — so no core ends up with two heavyweights while another hosts
// two near-idle ranks (a situation priorities alone cannot repair: the
// paper's decode weights are relative within a core). Unlike
// ilp-pairing it will colonise empty cores, spreading work across the
// whole chip when seats allow.
#pragma once

#include <cstdint>
#include <vector>

#include "mpisim/hooks.hpp"
#include "policy/cadence.hpp"

namespace smtbal::policy {

struct AllocationConfig {
  /// Smoothing of per-rank compute time and the re-pack epochs.
  Cadence cadence{.warmup_epochs = 2, .interval = 4, .smoothing = 0.5};
  /// When false, only the cores already hosting ranks are re-packed;
  /// when true (default), every core of the chip is a bin.
  bool spread = true;
};

class AllocationPolicy final : public mpisim::BalancePolicy {
 public:
  explicit AllocationPolicy(AllocationConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "allocation"; }

  void on_start(mpisim::EngineControl& control) override;
  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override;

  /// Total placement actuations (moves + swaps) issued so far.
  [[nodiscard]] std::uint64_t moves() const { return moves_; }

 private:
  AllocationConfig config_;
  std::vector<double> smoothed_load_;
  std::uint64_t moves_ = 0;
};

}  // namespace smtbal::policy
