// Node-local view of a cluster's EngineControl, for per-node inner
// controllers (the two-level balancer's and repartition's inner
// DynamicBalancers): local rank ids 0..k-1 map onto the node's global
// ranks, placement() is the node-local CPU slice, and threads_per_core()
// is the hosting node's SMT width — nodes may differ on a heterogeneous
// cluster. Every other call keeps the EngineControl defaults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mpisim/hooks.hpp"
#include "mpisim/phase.hpp"

namespace smtbal::mpisim {

class NodeControl final : public EngineControl {
 public:
  /// `global_ranks` (the node's global rank ids, in local order) must
  /// outlive the view; `within` maps every global rank to its CPU.
  NodeControl(EngineControl& global,
              const std::vector<std::size_t>& global_ranks,
              const Placement& within, std::uint32_t threads_per_core)
      : global_(&global),
        global_ranks_(&global_ranks),
        threads_per_core_(threads_per_core) {
    placement_.cpu_of_rank.reserve(global_ranks.size());
    for (const std::size_t g : global_ranks) {
      placement_.cpu_of_rank.push_back(within.cpu_of_rank[g]);
    }
  }

  /// Forwards to `global` from now on (the control of the current call).
  void rebind(EngineControl& global) { global_ = &global; }

  void set_rank_priority(RankId rank, int priority) override {
    global_->set_rank_priority(global_id(rank), priority);
  }
  [[nodiscard]] int rank_priority(RankId rank) const override {
    return global_->rank_priority(global_id(rank));
  }
  [[nodiscard]] const Placement& placement() const override {
    return placement_;
  }
  [[nodiscard]] std::size_t num_ranks() const override {
    return global_ranks_->size();
  }
  [[nodiscard]] os::KernelModel& kernel() override { return global_->kernel(); }
  [[nodiscard]] std::uint32_t threads_per_core() const override {
    return threads_per_core_;
  }

 private:
  [[nodiscard]] RankId global_id(RankId local) const {
    return RankId{static_cast<std::uint32_t>((*global_ranks_)[local.value()])};
  }

  EngineControl* global_;
  const std::vector<std::size_t>* global_ranks_;
  Placement placement_;
  std::uint32_t threads_per_core_;
};

}  // namespace smtbal::mpisim
