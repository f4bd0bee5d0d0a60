// Rank-to-rank message-traffic accounting for migration decisions.
//
// The repartitioning balancer needs the application's communication
// structure — which ranks talk, and how much — to keep chatty ranks
// co-located when it moves work between nodes. Rather than re-walking
// the rank programs (which would miss data-dependent behaviour), a
// CommGraphObserver rides the simulation's ObserverBus and accumulates
// every observed message arrival into a directed (src, dst) -> (bytes,
// count) multigraph. The partitioner (partition.hpp) then consumes the
// symmetrised edge weights.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "mpisim/event.hpp"
#include "mpisim/observer.hpp"

namespace smtbal::cluster {

/// Accumulated rank-to-rank traffic: per directed pair, total bytes and
/// message count. Sparse — only pairs that actually communicated hold an
/// entry — and iterated in (src, dst) order for determinism.
class CommGraph {
 public:
  struct Edge {
    std::uint64_t bytes = 0;
    std::uint64_t count = 0;
  };

  /// Clears the graph and fixes the rank-id domain [0, num_ranks).
  void reset(std::size_t num_ranks) {
    num_ranks_ = num_ranks;
    edges_.clear();
  }

  void record(std::uint32_t src, std::uint32_t dst, std::uint64_t bytes) {
    Edge& edge = edges_[{src, dst}];
    edge.bytes += bytes;
    ++edge.count;
  }

  [[nodiscard]] std::size_t num_ranks() const { return num_ranks_; }

  /// The directed edge, or a zero edge when the pair never communicated.
  [[nodiscard]] Edge edge(std::uint32_t src, std::uint32_t dst) const {
    const auto it = edges_.find({src, dst});
    return it == edges_.end() ? Edge{} : it->second;
  }

  /// Visits every directed edge in (src, dst) order.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (const auto& [key, edge] : edges_) {
      fn(key.first, key.second, edge);
    }
  }

 private:
  std::size_t num_ranks_ = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, Edge> edges_;
};

/// Bus observer feeding a CommGraph from kMsgArrival events. Attached by
/// ClusterEngine::run() ahead of the policy observer, so a policy's
/// on_epoch always sees the traffic up to the epoch boundary.
class CommGraphObserver final : public mpisim::SimObserver {
 public:
  void on_start(std::size_t num_ranks) override { graph_.reset(num_ranks); }

  void on_event(const mpisim::Event& event) override {
    if (event.kind != mpisim::EventKind::kMsgArrival) return;
    graph_.record(event.msg.src, event.msg.dst, event.msg.bytes);
  }

  [[nodiscard]] const CommGraph& graph() const { return graph_; }

 private:
  CommGraph graph_;
};

}  // namespace smtbal::cluster
