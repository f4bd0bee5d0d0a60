#include "cluster/interconnect.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace smtbal::cluster {

void InterconnectConfig::validate() const {
  if (!std::isfinite(link_latency) || link_latency < 0.0) {
    std::ostringstream os;
    os << "InterconnectConfig.link_latency must be finite and non-negative, "
          "got "
       << link_latency;
    throw InvalidArgument(os.str());
  }
  if (!std::isfinite(link_bandwidth_bytes_per_s) ||
      link_bandwidth_bytes_per_s <= 0.0) {
    std::ostringstream os;
    os << "InterconnectConfig.link_bandwidth_bytes_per_s must be finite and "
          "positive, got "
       << link_bandwidth_bytes_per_s;
    throw InvalidArgument(os.str());
  }
}

Interconnect::Interconnect(InterconnectConfig config, std::uint32_t num_nodes)
    : config_(config), num_nodes_(num_nodes) {
  config_.validate();
  SMTBAL_REQUIRE(num_nodes >= 1, "Interconnect needs at least one node");
  const std::size_t links = config_.topology == Topology::kFullMesh
                                ? std::size_t{num_nodes} * num_nodes
                                : std::size_t{2} * num_nodes;
  busy_until_.assign(links, 0.0);
}

SimTime Interconnect::serialization(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / config_.link_bandwidth_bytes_per_s;
}

SimTime Interconnect::hop(std::size_t link, SimTime t, SimTime ser) {
  const SimTime start = std::max(t, busy_until_[link]);
  busy_until_[link] = start + ser;
  return start + ser + config_.link_latency;
}

SimTime Interconnect::transfer(SimTime send_time, std::uint32_t src_node,
                               std::uint32_t dst_node, std::uint64_t bytes) {
  SMTBAL_REQUIRE(src_node < num_nodes_ && dst_node < num_nodes_,
                 "Interconnect::transfer node out of range");
  SMTBAL_REQUIRE(src_node != dst_node,
                 "intra-node traffic must not be routed over the "
                 "interconnect");
  const SimTime ser = serialization(bytes);
  if (config_.topology == Topology::kFullMesh) {
    return hop(std::size_t{src_node} * num_nodes_ + dst_node, send_time, ser);
  }
  // Star: store-and-forward through the switch — serialise onto the
  // source's uplink, then onto the destination's downlink.
  const SimTime at_switch = hop(src_node, send_time, ser);
  return hop(std::size_t{num_nodes_} + dst_node, at_switch, ser);
}

SimTime Interconnect::uncontended_cost(std::uint64_t bytes) const {
  const int hops = config_.topology == Topology::kFullMesh ? 1 : 2;
  return hops * (serialization(bytes) + config_.link_latency);
}

}  // namespace smtbal::cluster
