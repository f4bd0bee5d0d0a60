#include "mpisim/phase.hpp"

#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace smtbal::mpisim {

RankProgram& RankProgram::compute(isa::KernelId kernel, double instructions,
                                  trace::RankState traced_as) {
  SMTBAL_REQUIRE(instructions >= 0.0, "instruction count must be >= 0");
  phases.push_back(ComputePhase{kernel, instructions, traced_as});
  return *this;
}

RankProgram& RankProgram::barrier() {
  phases.push_back(BarrierPhase{});
  return *this;
}

RankProgram& RankProgram::send(RankId peer, std::uint64_t bytes, int tag) {
  phases.push_back(SendPhase{peer, bytes, tag});
  return *this;
}

RankProgram& RankProgram::recv(RankId peer, std::uint64_t bytes, int tag) {
  phases.push_back(RecvPhase{peer, bytes, tag});
  return *this;
}

RankProgram& RankProgram::wait_all() {
  phases.push_back(WaitAllPhase{});
  return *this;
}

RankProgram& RankProgram::allreduce(std::uint64_t bytes) {
  SMTBAL_REQUIRE(bytes > 0, "allreduce payload must be non-empty");
  phases.push_back(AllreducePhase{bytes});
  return *this;
}

RankProgram& RankProgram::delay(SimTime duration, trace::RankState traced_as) {
  SMTBAL_REQUIRE(duration >= 0.0, "delay must be >= 0");
  phases.push_back(DelayPhase{duration, traced_as});
  return *this;
}

void Application::validate() const {
  SMTBAL_REQUIRE(!ranks.empty(), "application has no ranks");

  // The collective sequence (kind + payload) must be identical across
  // ranks: MPI collectives are matched by order on the communicator.
  std::vector<std::pair<char, std::uint64_t>> reference_collectives;
  bool first = true;
  // (src, dst, tag) -> sends minus recvs
  std::map<std::tuple<std::uint32_t, std::uint32_t, int>, long> traffic;

  for (std::size_t r = 0; r < ranks.size(); ++r) {
    std::vector<std::pair<char, std::uint64_t>> collectives;
    for (const Phase& phase : ranks[r].phases) {
      if (std::holds_alternative<BarrierPhase>(phase)) {
        collectives.emplace_back('B', 0);
      } else if (const auto* reduce = std::get_if<AllreducePhase>(&phase)) {
        collectives.emplace_back('R', reduce->bytes);
      } else if (const auto* send = std::get_if<SendPhase>(&phase)) {
        SMTBAL_REQUIRE(send->peer.value() < ranks.size(),
                       "send peer out of range");
        SMTBAL_REQUIRE(send->peer.value() != r, "send to self");
        ++traffic[{static_cast<std::uint32_t>(r), send->peer.value(),
                   send->tag}];
      } else if (const auto* recv = std::get_if<RecvPhase>(&phase)) {
        SMTBAL_REQUIRE(recv->peer.value() < ranks.size(),
                       "recv peer out of range");
        SMTBAL_REQUIRE(recv->peer.value() != r, "recv from self");
        --traffic[{recv->peer.value(), static_cast<std::uint32_t>(r),
                   recv->tag}];
      }
    }
    if (first) {
      reference_collectives = std::move(collectives);
      first = false;
    } else {
      SMTBAL_REQUIRE(collectives == reference_collectives,
                     "rank collective sequences differ: the collective "
                     "would deadlock");
    }
  }
  for (const auto& [key, balance] : traffic) {
    SMTBAL_REQUIRE(balance == 0,
                   "unmatched send/recv traffic between ranks " +
                       std::to_string(std::get<0>(key)) + " -> " +
                       std::to_string(std::get<1>(key)));
  }
}

Placement Placement::identity(std::size_t num_ranks,
                              std::uint32_t slots_per_core) {
  Placement placement;
  for (std::size_t r = 0; r < num_ranks; ++r) {
    const auto linear = static_cast<std::uint32_t>(r);
    placement.cpu_of_rank.push_back(CpuId{CoreId{linear / slots_per_core},
                                          ThreadSlot{linear % slots_per_core}});
  }
  return placement;
}

Placement Placement::from_linear(const std::vector<std::uint32_t>& cpus,
                                 std::uint32_t slots_per_core) {
  Placement placement;
  for (std::uint32_t linear : cpus) {
    placement.cpu_of_rank.push_back(CpuId{CoreId{linear / slots_per_core},
                                          ThreadSlot{linear % slots_per_core}});
  }
  return placement;
}

void Placement::validate(const std::vector<std::uint32_t>& node_of_rank,
                         const std::vector<std::uint32_t>& contexts_of_node,
                         const std::vector<std::uint32_t>& tpc_of_node) const {
  SMTBAL_REQUIRE(contexts_of_node.size() == tpc_of_node.size(),
                 "Placement::validate: contexts_of_node and tpc_of_node "
                 "must agree in length");
  const std::uint32_t num_nodes =
      static_cast<std::uint32_t>(contexts_of_node.size());
  if (node_of_rank.size() != cpu_of_rank.size()) {
    std::ostringstream os;
    os << "placement maps disagree: node_of_rank has " << node_of_rank.size()
       << " ranks but within-node placement has " << cpu_of_rank.size();
    throw InvalidArgument(os.str());
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> seats;
  for (std::size_t r = 0; r < node_of_rank.size(); ++r) {
    const std::uint32_t node = node_of_rank[r];
    if (node >= num_nodes) {
      std::ostringstream os;
      os << "rank " << r << " placed on node " << node
         << " but the cluster has " << num_nodes << " node(s)";
      throw InvalidArgument(os.str());
    }
    // linear() folds an out-of-range slot onto another core's context
    // (e.g. core 0 slot 2 == core 1 slot 0 at 2-way SMT); such a
    // placement would silently double-book that seat, so reject the
    // alias before the linear-range check can miss it.
    if (cpu_of_rank[r].slot.value() >= tpc_of_node[node]) {
      std::ostringstream os;
      os << "rank " << r << " placed on SMT slot "
         << cpu_of_rank[r].slot.value() << " but node " << node
         << " cores are " << tpc_of_node[node] << "-way";
      throw InvalidArgument(os.str());
    }
    const std::uint32_t lin = cpu_of_rank[r].linear(tpc_of_node[node]);
    if (lin >= contexts_of_node[node]) {
      std::ostringstream os;
      os << "rank " << r << " placed on within-node CPU " << lin
         << " but node " << node << " has " << contexts_of_node[node]
         << " context(s)";
      throw InvalidArgument(os.str());
    }
    if (!seats.emplace(node, lin).second) {
      std::ostringstream os;
      os << "ranks collide on node " << node << " CPU " << lin
         << " (one MPI rank per context)";
      throw InvalidArgument(os.str());
    }
  }
}

}  // namespace smtbal::mpisim
