#include "policy/allocation.hpp"

#include <algorithm>
#include <cstddef>
#include <set>

#include "common/error.hpp"
#include "policy/seating.hpp"

namespace smtbal::policy {

AllocationPolicy::AllocationPolicy(AllocationConfig config) : config_(config) {
  config_.cadence.validate();
}

void AllocationPolicy::on_start(mpisim::EngineControl& control) {
  smoothed_load_.assign(control.num_ranks(), 0.0);
}

void AllocationPolicy::on_epoch(mpisim::EngineControl& control,
                                const mpisim::EpochReport& report) {
  SMTBAL_CHECK(report.ranks.size() == smoothed_load_.size());
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const mpisim::RankEpochStats& stats = report.ranks[r];
    if (stats.priority == 0) continue;
    smoothed_load_[r] =
        smoothed_load_[r] == 0.0
            ? stats.compute
            : config_.cadence.smooth(smoothed_load_[r], stats.compute);
  }
  if (!config_.cadence.due(report.epoch)) return;

  std::vector<SeatAssignment> desired;
  const auto ranks_of_node = live_ranks_by_node(control, report);
  for (std::uint32_t node = 0; node < ranks_of_node.size(); ++node) {
    const std::vector<std::size_t>& ranks = ranks_of_node[node];
    if (ranks.empty()) continue;
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
    // LPT: heaviest first onto the least-loaded core with a free seat.
    // Ties break toward the lowest core id, so the packing — and through
    // it the whole run — is deterministic.
    struct Bin {
      double load = 0.0;
      std::uint32_t used = 0;
    };
    std::vector<Bin> bins(cores.size());
    for (const std::size_t r : heaviest_first(ranks, smoothed_load_)) {
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
