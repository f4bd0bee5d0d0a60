#include "cluster/placement.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace smtbal::cluster {

namespace {

CpuId cpu_from_local(std::uint32_t local, std::uint32_t threads_per_core) {
  return CpuId{CoreId{local / threads_per_core},
               ThreadSlot{local % threads_per_core}};
}

}  // namespace

ClusterPlacement ClusterPlacement::block(std::size_t num_ranks,
                                         std::uint32_t num_nodes,
                                         std::uint32_t threads_per_core) {
  SMTBAL_REQUIRE(num_nodes >= 1, "block placement needs at least one node");
  SMTBAL_REQUIRE(threads_per_core >= 1, "threads_per_core must be >= 1");
  const std::size_t per_node = (num_ranks + num_nodes - 1) / num_nodes;
  ClusterPlacement placement;
  placement.node_of_rank.reserve(num_ranks);
  placement.within.cpu_of_rank.reserve(num_ranks);
  for (std::size_t r = 0; r < num_ranks; ++r) {
    placement.node_of_rank.push_back(
        static_cast<std::uint32_t>(r / per_node));
    placement.within.cpu_of_rank.push_back(cpu_from_local(
        static_cast<std::uint32_t>(r % per_node), threads_per_core));
  }
  return placement;
}

ClusterPlacement ClusterPlacement::cyclic(std::size_t num_ranks,
                                          std::uint32_t num_nodes,
                                          std::uint32_t threads_per_core) {
  SMTBAL_REQUIRE(num_nodes >= 1, "cyclic placement needs at least one node");
  SMTBAL_REQUIRE(threads_per_core >= 1, "threads_per_core must be >= 1");
  ClusterPlacement placement;
  placement.node_of_rank.reserve(num_ranks);
  placement.within.cpu_of_rank.reserve(num_ranks);
  for (std::size_t r = 0; r < num_ranks; ++r) {
    placement.node_of_rank.push_back(
        static_cast<std::uint32_t>(r % num_nodes));
    placement.within.cpu_of_rank.push_back(cpu_from_local(
        static_cast<std::uint32_t>(r / num_nodes), threads_per_core));
  }
  return placement;
}

ClusterPlacement ClusterPlacement::block_by_capacity(
    std::size_t num_ranks, const std::vector<std::uint32_t>& contexts_of_node,
    const std::vector<std::uint32_t>& tpc_of_node) {
  SMTBAL_REQUIRE(!contexts_of_node.empty(),
                 "block_by_capacity needs at least one node");
  SMTBAL_REQUIRE(contexts_of_node.size() == tpc_of_node.size(),
                 "block_by_capacity: contexts_of_node and tpc_of_node must "
                 "agree in length");
  std::size_t seats = 0;
  for (const std::uint32_t contexts : contexts_of_node) seats += contexts;
  if (num_ranks > seats) {
    std::ostringstream os;
    os << "block_by_capacity: " << num_ranks << " rank(s) but the cluster has "
       << seats << " seat(s)";
    throw InvalidArgument(os.str());
  }
  ClusterPlacement placement;
  placement.node_of_rank.reserve(num_ranks);
  placement.within.cpu_of_rank.reserve(num_ranks);
  std::uint32_t node = 0;
  std::uint32_t local = 0;
  for (std::size_t r = 0; r < num_ranks; ++r) {
    while (local >= contexts_of_node[node]) {
      ++node;
      local = 0;
    }
    placement.node_of_rank.push_back(node);
    placement.within.cpu_of_rank.push_back(
        cpu_from_local(local, tpc_of_node[node]));
    ++local;
  }
  return placement;
}

ClusterPlacement ClusterPlacement::explicit_map(
    std::vector<std::uint32_t> node_of_rank, mpisim::Placement within) {
  ClusterPlacement placement;
  placement.node_of_rank = std::move(node_of_rank);
  placement.within = std::move(within);
  return placement;
}

std::vector<std::vector<std::size_t>> ClusterPlacement::ranks_by_node(
    std::uint32_t num_nodes) const {
  std::vector<std::vector<std::size_t>> by_node(num_nodes);
  for (std::size_t r = 0; r < node_of_rank.size(); ++r) {
    SMTBAL_REQUIRE(node_of_rank[r] < num_nodes,
                   "ClusterPlacement names a node beyond num_nodes");
    by_node[node_of_rank[r]].push_back(r);
  }
  return by_node;
}

void ClusterPlacement::validate(std::uint32_t num_nodes,
                                std::uint32_t contexts_per_node,
                                std::uint32_t threads_per_core) const {
  validate(std::vector<std::uint32_t>(num_nodes, contexts_per_node),
           std::vector<std::uint32_t>(num_nodes, threads_per_core));
}

void ClusterPlacement::validate(
    const std::vector<std::uint32_t>& contexts_of_node,
    const std::vector<std::uint32_t>& tpc_of_node) const {
  within.validate(node_of_rank, contexts_of_node, tpc_of_node);
}

}  // namespace smtbal::cluster
