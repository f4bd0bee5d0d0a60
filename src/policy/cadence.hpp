// Epoch cadence of the policies that act every few epochs (allocation,
// ilp-pairing, budget-redistribution): every epoch folds the report into
// a smoothed per-rank signal, and on due epochs the policy acts on it,
// node by node. DESIGN.md §12 "Epoch cadence" compares the other gates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "mpisim/hooks.hpp"

namespace smtbal::policy {

struct Cadence {
  /// The first action comes at epoch `warmup_epochs` (1-based), on that
  /// epoch's report; with 0 it comes at epoch `interval`.
  int warmup_epochs = 0;
  /// Act every `interval` epochs after the first action.
  int interval = 1;
  /// Weight of the newest epoch in the smoothed signal (1 = last only).
  double smoothing = 1.0;

  void validate() const {
    SMTBAL_REQUIRE(warmup_epochs >= 0, "warmup_epochs must be >= 0");
    SMTBAL_REQUIRE(interval >= 1, "interval must be >= 1");
    SMTBAL_REQUIRE(smoothing > 0.0 && smoothing <= 1.0,
                   "smoothing must be in (0, 1]");
  }
  [[nodiscard]] bool due(int epoch) const {
    return epoch >= warmup_epochs && (epoch - warmup_epochs) % interval == 0;
  }
  /// One exponential-smoothing step from `old` toward `raw`.
  [[nodiscard]] double smooth(double old, double raw) const {
    return smoothing * raw + (1.0 - smoothing) * old;
  }
};

/// The live ranks (priority != 0) of each node, indexed by node id with
/// ranks ascending; a node without live ranks has an empty entry.
[[nodiscard]] inline std::vector<std::vector<std::size_t>> live_ranks_by_node(
    const mpisim::EngineControl& control, const mpisim::EpochReport& report) {
  std::vector<std::vector<std::size_t>> ranks_of_node(control.num_nodes());
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    if (report.ranks[r].priority == 0) continue;
    ranks_of_node[control.node_of(RankId{static_cast<std::uint32_t>(r)})]
        .push_back(r);
  }
  return ranks_of_node;
}

/// `ranks` ordered by `signal` descending, ties by rank id ascending: the
/// order in which allocation and ilp-pairing deal ranks onto seats.
[[nodiscard]] inline std::vector<std::size_t> heaviest_first(
    std::vector<std::size_t> ranks, const std::vector<double>& signal) {
  std::sort(ranks.begin(), ranks.end(), [&](std::size_t a, std::size_t b) {
    return signal[a] != signal[b] ? signal[a] > signal[b] : a < b;
  });
  return ranks;
}

}  // namespace smtbal::policy
