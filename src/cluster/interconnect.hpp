// Inter-node interconnect model: per-link latency/bandwidth distinct from
// the intra-node shared-memory path, a simple topology table, and link
// contention via per-link busy-until tracking.
//
// Two topologies cover the common cases:
//
//  * kFullMesh — a dedicated directed link per (src, dst) node pair; a
//    message serialises onto its link (contending only with other traffic
//    on the same ordered pair) and arrives after one hop.
//
//  * kStar — every node hangs off one central switch through a directed
//    uplink and downlink; a message serialises onto the source's uplink,
//    then (store-and-forward) onto the destination's downlink. Traffic
//    from one node contends on its uplink regardless of destination, and
//    traffic toward one node contends on its downlink regardless of
//    source — the classic fan-in hotspot.
//
// Contention model: each directed link tracks when it becomes free
// (busy-until). A transfer occupies the link for its serialisation time
// starting at max(injection time, link free time); propagation latency is
// added per hop after serialisation. Calls are made by the simulation
// core in deterministic event order, so the occupancy state — and every
// arrival time derived from it — is reproducible run to run.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace smtbal::cluster {

enum class Topology {
  kFullMesh,
  kStar,
};

struct InterconnectConfig {
  Topology topology = Topology::kFullMesh;
  /// Per-hop propagation + software latency. Default is ~6x the
  /// intra-node base latency: a commodity-cluster message costs
  /// noticeably more than a shared-memory copy.
  SimTime link_latency = 1.2e-5;
  /// Per-link serialisation bandwidth (~10 GbE payload rate by default,
  /// vs. 1.5 GB/s for the intra-node copy).
  double link_bandwidth_bytes_per_s = 1.25e9;

  void validate() const;
};

class Interconnect {
 public:
  Interconnect(InterconnectConfig config, std::uint32_t num_nodes);

  /// Arrival time of `bytes` injected at `send_time` from `src_node` to
  /// `dst_node`. Stateful: occupies every link on the path (busy-until),
  /// so back-to-back transfers on a shared link queue behind each other.
  /// Intra-node traffic must not be routed here (src != dst required).
  SimTime transfer(SimTime send_time, std::uint32_t src_node,
                   std::uint32_t dst_node, std::uint64_t bytes);

  /// Cost of an uncontended end-to-end transfer (all hops, no queueing).
  /// Stateless — used to price collective tree steps.
  [[nodiscard]] SimTime uncontended_cost(std::uint64_t bytes) const;

  [[nodiscard]] const InterconnectConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t num_nodes() const { return num_nodes_; }

  /// Free-time of every directed link (kFullMesh: link src*N+dst; kStar:
  /// uplink of node i = i, downlink of node i = N+i). Read-only window for
  /// invariant checks and property tests: each entry is non-decreasing
  /// over a run, since a transfer can only push a link's free time out.
  [[nodiscard]] const std::vector<SimTime>& link_busy_until() const {
    return busy_until_;
  }

 private:
  [[nodiscard]] SimTime serialization(std::uint64_t bytes) const;
  /// Occupies `link` for one serialisation starting no earlier than `t`;
  /// returns the post-hop time (serialisation + propagation).
  SimTime hop(std::size_t link, SimTime t, SimTime ser);

  InterconnectConfig config_;
  std::uint32_t num_nodes_;
  /// kFullMesh: link src*N+dst. kStar: uplink of node i = i, downlink of
  /// node i = N+i.
  std::vector<SimTime> busy_until_;
};

}  // namespace smtbal::cluster
