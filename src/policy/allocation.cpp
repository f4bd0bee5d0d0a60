#include "policy/allocation.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>

#include "common/error.hpp"
#include "policy/seating.hpp"

namespace smtbal::policy {

void AllocationConfig::validate() const {
  SMTBAL_REQUIRE(warmup_epochs >= 0,
                 "AllocationConfig.warmup_epochs must be >= 0");
  SMTBAL_REQUIRE(interval >= 1, "AllocationConfig.interval must be >= 1");
  SMTBAL_REQUIRE(smoothing > 0.0 && smoothing <= 1.0,
                 "AllocationConfig.smoothing must be in (0, 1]");
}

AllocationPolicy::AllocationPolicy(AllocationConfig config) : config_(config) {
  config_.validate();
}

void AllocationPolicy::on_epoch(mpisim::EngineControl& control,
                                const mpisim::EpochReport& report) {
  if (smoothed_load_.empty()) smoothed_load_.assign(report.ranks.size(), 0.0);
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const mpisim::RankEpochStats& stats = report.ranks[r];
    if (stats.priority == 0) continue;
    smoothed_load_[r] = smoothed_load_[r] == 0.0
                            ? stats.compute
                            : (1.0 - config_.smoothing) * smoothed_load_[r] +
                                  config_.smoothing * stats.compute;
  }
  if (report.epoch < config_.warmup_epochs) return;
  if ((report.epoch - config_.warmup_epochs) % config_.interval != 0) return;

  std::map<std::uint32_t, std::vector<std::size_t>> ranks_of_node;
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    if (report.ranks[r].priority == 0) continue;
    ranks_of_node[control.node_of(RankId{static_cast<std::uint32_t>(r)})]
        .push_back(r);
  }

  std::vector<SeatAssignment> desired;
  for (auto& [node, ranks] : ranks_of_node) {
    // The node's own shape — seat counts vary across the nodes of a
    // heterogeneous cluster.
    const std::uint32_t tpc = control.threads_per_core_of(node);
    const std::uint32_t num_cores = control.num_cores_of(node);
    // The bins: every core of the node's chip when spreading, otherwise
    // just the cores the node's ranks occupy today.
    std::vector<std::uint32_t> cores;
    if (config_.spread) {
      for (std::uint32_t c = 0; c < num_cores; ++c) cores.push_back(c);
    } else {
      std::set<std::uint32_t> occupied;
      for (const std::size_t r : ranks) {
        occupied.insert(report.ranks[r].cpu.core.value());
      }
      cores.assign(occupied.begin(), occupied.end());
    }
    std::vector<std::size_t> order = ranks;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (smoothed_load_[a] != smoothed_load_[b]) {
        return smoothed_load_[a] > smoothed_load_[b];
      }
      return a < b;
    });
    // LPT: heaviest first onto the least-loaded core with a free seat.
    // Ties break toward the lowest core id, so the packing — and through
    // it the whole run — is deterministic.
    struct Bin {
      double load = 0.0;
      std::uint32_t used = 0;
    };
    std::vector<Bin> bins(cores.size());
    for (const std::size_t r : order) {
      std::size_t best = cores.size();
      for (std::size_t c = 0; c < cores.size(); ++c) {
        if (bins[c].used >= tpc) continue;
        if (best == cores.size() || bins[c].load < bins[best].load) best = c;
      }
      SMTBAL_CHECK(best < cores.size());  // seats >= ranks by construction
      desired.push_back(
          {RankId{static_cast<std::uint32_t>(r)},
           CpuId{CoreId{cores[best]}, ThreadSlot{bins[best].used}}});
      bins[best].load += smoothed_load_[r];
      ++bins[best].used;
    }
  }
  moves_ += apply_seating(control, desired);
}

}  // namespace smtbal::policy
