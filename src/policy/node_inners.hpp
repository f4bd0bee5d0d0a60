// The inner level that two-level and repartition share: one
// DynamicBalancer per node, each scoped to its node's ranks and driven on
// the engine itself with the full epoch report. This is the inner loop of
// Mohammed et al.'s two-level DLB; the two policies differ only in their
// outer loops.
//
// Node membership comes from the engine (EngineControl::node_of), never
// from a placement the policy captured, so the same driver runs on a flat
// engine (one node) and follows ranks that migrate between nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mpisim/hooks.hpp"
#include "policy/dynamic.hpp"

namespace smtbal::policy {

class NodeInners {
 public:
  explicit NodeInners(DynamicBalancerConfig config) : config_(config) {}

  /// Drops every inner and starts one per populated node of `control`.
  void start(mpisim::EngineControl& control);

  /// Steps each populated node's inner on `report`, first restarting the
  /// inners whose membership changed since the last call: their state
  /// belongs to the old rank set, so any change invalidates it.
  void drive(mpisim::EngineControl& control, const mpisim::EpochReport& report);

  /// Re-bounds node `node`'s gap ceiling (DynamicBalancer::set_max_diff).
  void set_max_diff(std::uint32_t node, int max_diff) {
    inners_[node]->set_max_diff(max_diff);
  }

  /// Sorted global rank ids per node (one entry per engine node), as of
  /// the last start() or drive().
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& membership()
      const {
    return membership_;
  }

 private:
  void sync(mpisim::EngineControl& control);

  DynamicBalancerConfig config_;
  std::vector<std::vector<std::size_t>> membership_;
  std::vector<std::unique_ptr<DynamicBalancer>> inners_;
};

}  // namespace smtbal::policy
