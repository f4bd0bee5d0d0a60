#include "cluster/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace smtbal::cluster {

bool ClusterConfig::homogeneous() const {
  return std::all_of(node_shapes.begin(), node_shapes.end(),
                     [](const NodeShape& s) { return s.is_default(); });
}

ClusterConfig::NodeShape ClusterConfig::shape_of(std::uint32_t n) const {
  return n < node_shapes.size() ? node_shapes[n] : NodeShape{};
}

smt::ChipConfig ClusterConfig::node_chip(std::uint32_t n) const {
  const NodeShape shape = shape_of(n);
  smt::ChipConfig chip = node.chip;
  if (shape.num_cores != 0) {
    chip.num_cores = shape.num_cores;
    chip.memory.num_cores = shape.num_cores;
  }
  if (shape.threads_per_core != 0) {
    chip.core.threads_per_core = shape.threads_per_core;
  }
  chip.frequency_ghz *= shape.clock_scale;
  return chip;
}

void ClusterConfig::validate() const {
  SMTBAL_REQUIRE(num_nodes >= 1, "ClusterConfig.num_nodes must be >= 1");
  node.validate();
  SMTBAL_REQUIRE(node_shapes.size() <= num_nodes,
                 "ClusterConfig.node_shapes has more entries than num_nodes");
  for (std::size_t n = 0; n < node_shapes.size(); ++n) {
    const NodeShape& shape = node_shapes[n];
    if (!(shape.clock_scale > 0.0) || !std::isfinite(shape.clock_scale)) {
      throw InvalidArgument("ClusterConfig.node_shapes[" + std::to_string(n) +
                            "].clock_scale must be positive and finite");
    }
    if (shape.is_default()) continue;
    // The derived chip must be a valid engine configuration in its own
    // right (context counts, sampler limits, memory shape agreement).
    mpisim::EngineConfig derived = node;
    derived.chip = node_chip(static_cast<std::uint32_t>(n));
    try {
      derived.validate();
    } catch (const std::exception& e) {
      throw InvalidArgument("ClusterConfig.node_shapes[" + std::to_string(n) +
                            "] derives an invalid node config: " + e.what());
    }
  }
  interconnect.validate();
}

mpisim::Engine::Nodes ClusterEngine::derive_nodes(
    const ClusterConfig& config,
    std::shared_ptr<smt::ThroughputSampler> sampler) {
  config.validate();
  if (sampler == nullptr) {
    sampler = std::make_shared<smt::ThroughputSampler>(config.node.chip,
                                                       config.node.sampler);
  }
  mpisim::Engine::Nodes nodes;
  nodes.samplers.push_back(std::move(sampler));
  for (std::uint32_t n = 0; n < config.num_nodes; ++n) {
    const smt::ChipConfig& chip = nodes.chips.emplace_back(config.node_chip(n));
    smt::ThroughputSampler* node_sampler = nullptr;
    for (const auto& existing : nodes.samplers) {
      if (existing->chip_config() == chip) {
        node_sampler = existing.get();
        break;
      }
    }
    if (node_sampler == nullptr) {
      auto shaped =
          std::make_shared<smt::ThroughputSampler>(chip, config.node.sampler);
      shaped->attach_shared_cache(nodes.samplers[0]->shared_cache());
      node_sampler = shaped.get();
      nodes.samplers.push_back(std::move(shaped));
    }
    nodes.sampler_of_node.push_back(node_sampler);
  }
  return nodes;
}

ClusterEngine::ClusterEngine(mpisim::Application app,
                             ClusterPlacement placement, ClusterConfig config)
    : ClusterEngine(std::move(app), std::move(placement), std::move(config),
                    nullptr) {}

ClusterEngine::ClusterEngine(mpisim::Application app,
                             ClusterPlacement placement, ClusterConfig config,
                             std::shared_ptr<smt::ThroughputSampler> sampler)
    : mpisim::Engine(std::move(app), placement.within,
                     std::move(placement.node_of_rank), config.node,
                     derive_nodes(config, std::move(sampler))),
      config_(std::move(config)),
      interconnect_(config_.interconnect, config_.num_nodes),
      migration_of_node_(config_.num_nodes) {}

SimTime ClusterEngine::arrival_time(SimTime send_time, RankId src, RankId dst,
                                   std::uint64_t bytes) {
  const std::uint32_t src_node = node_of_rank()[src.value()];
  const std::uint32_t dst_node = node_of_rank()[dst.value()];
  if (src_node == dst_node) {
    return mpisim::Engine::arrival_time(send_time, src, dst, bytes);
  }
  return interconnect_.transfer(send_time, src_node, dst_node, bytes);
}

SimTime ClusterEngine::collective_step_cost(std::uint64_t bytes) {
  // The binomial tree's slowest step crosses nodes, so a multi-node
  // collective is paced by the pricier of the two paths; with one node
  // this is exactly the flat engine's cost (M=1 bit-identity).
  const SimTime intra = mpisim::Engine::collective_step_cost(bytes);
  if (interconnect_.num_nodes() <= 1) return intra;
  return std::max(intra, interconnect_.uncontended_cost(bytes));
}

SimTime ClusterEngine::migration_landing(SimTime now, std::uint32_t from_node,
                                         std::uint32_t to_node) {
  const std::uint64_t bytes = config_.migration.resident_state_bytes;
  const SimTime landed =
      bytes == 0 ? now : interconnect_.transfer(now, from_node, to_node, bytes);
  MigrationCounters& counters = migration_of_node_[from_node];
  ++counters.migrations;
  counters.bytes += bytes;
  counters.stall += landed - now;
  return landed;
}

ClusterRunResult ClusterEngine::run() {
  ClusterRunResult result;
  result.flat = mpisim::Engine::run();
  result.node_of_rank = node_of_rank();
  result.nodes.assign(config_.num_nodes, NodeStats{});
  for (std::size_t r = 0; r < result.flat.metrics.ranks.size(); ++r) {
    NodeStats& node = result.nodes[result.node_of_rank[r]];
    const mpisim::RankMetrics& rank = result.flat.metrics.ranks[r];
    node.compute += rank.compute;
    node.wait += rank.wait;
    node.spin += rank.spin;
    node.preempted += rank.preempted;
    ++node.ranks;
  }
  for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
    const MigrationCounters& counters = migration_of_node_[n];
    result.nodes[n].migrations = counters.migrations;
    result.nodes[n].bytes_migrated = counters.bytes;
    result.nodes[n].migration_stall = counters.stall;
  }
  return result;
}

smt::SamplerStats ClusterEngine::shape_sampler_stats() const {
  smt::SamplerStats total;
  for (std::size_t i = 1; i < nodes().samplers.size(); ++i) {
    total += nodes().samplers[i]->stats();
  }
  return total;
}

}  // namespace smtbal::cluster
