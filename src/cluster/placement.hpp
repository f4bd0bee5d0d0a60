// Rank -> (node, within-node CPU) placement maps for cluster runs.
//
// A cluster placement is the pair (node_of_rank, within-node Placement):
// the simulation core routes messages intra- or inter-node by the first
// map and pins each rank inside its node's chip by the second. Builders
// cover the standard MPI process-manager layouts — block (consecutive
// ranks fill a node before spilling to the next), cyclic (round-robin
// across nodes) — plus fully explicit maps.
#pragma once

#include <cstdint>
#include <vector>

#include "mpisim/phase.hpp"

namespace smtbal::cluster {

struct ClusterPlacement {
  /// Hosting node per rank (index into the cluster's node vector).
  std::vector<std::uint32_t> node_of_rank;
  /// Within-node CPU per rank (cores/slots local to the hosting node).
  mpisim::Placement within;

  /// Block layout: ranks 0..k-1 on node 0, the next k on node 1, ... with
  /// k = ceil(num_ranks / num_nodes); within a node, ranks fill linear
  /// CPUs in order (slot-major, like Placement::identity).
  static ClusterPlacement block(std::size_t num_ranks, std::uint32_t num_nodes,
                                std::uint32_t threads_per_core = 2);

  /// Cyclic layout: rank r on node r % num_nodes, filling that node's
  /// linear CPUs in arrival order.
  static ClusterPlacement cyclic(std::size_t num_ranks,
                                 std::uint32_t num_nodes,
                                 std::uint32_t threads_per_core = 2);

  /// Block layout over heterogeneous nodes: ranks fill node 0's seats in
  /// linear order (that node's own SMT width), then node 1's, and so on.
  /// `contexts_of_node[n]` and `tpc_of_node[n]` describe node n's chip —
  /// pass ClusterConfig::node_chip(n).num_contexts()/threads_per_core().
  /// Throws InvalidArgument when the ranks outnumber the total seats.
  static ClusterPlacement block_by_capacity(
      std::size_t num_ranks, const std::vector<std::uint32_t>& contexts_of_node,
      const std::vector<std::uint32_t>& tpc_of_node);

  /// Fully explicit map; validate() checks the shape.
  static ClusterPlacement explicit_map(std::vector<std::uint32_t> node_of_rank,
                                       mpisim::Placement within);

  [[nodiscard]] std::size_t size() const { return node_of_rank.size(); }

  /// Resident ranks per node, ascending within each node.
  [[nodiscard]] std::vector<std::vector<std::size_t>> ranks_by_node(
      std::uint32_t num_nodes) const;

  /// Structural checks: the two maps agree in length, every node index is
  /// in range, every within-node CPU fits the node's chip, and no two
  /// ranks share a (node, CPU) seat. Throws InvalidArgument.
  void validate(std::uint32_t num_nodes, std::uint32_t contexts_per_node,
                std::uint32_t threads_per_core) const;

  /// Heterogeneous form: node n's chip has contexts_of_node[n] contexts
  /// and tpc_of_node[n] SMT slots per core (the two vectors must agree in
  /// length — that length is the node count). Each rank's seat is checked
  /// against its *own* node's shape (mpisim::Placement::validate); the
  /// uniform overload above delegates here.
  void validate(const std::vector<std::uint32_t>& contexts_of_node,
                const std::vector<std::uint32_t>& tpc_of_node) const;
};

}  // namespace smtbal::cluster
