// Rank programs: the phase-level description of an MPI process.
//
// An application is SPMD (paper §II): every rank runs a sequence of
// phases — computation, nonblocking sends/receives, collective barriers,
// completion waits and fixed-cost bookkeeping. This is exactly the level
// at which the paper characterises MetBench, BT-MZ and SIESTA.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "isa/kernel.hpp"
#include "trace/state.hpp"

namespace smtbal::mpisim {

/// Executes `instructions` of `kernel`. Progress speed is decided by the
/// SMT chip model (context priority, core-mate behaviour). `traced_as`
/// lets workload builders mark phases as initialisation (white bars in the
/// paper's figures) instead of regular compute.
struct ComputePhase {
  isa::KernelId kernel = 0;
  double instructions = 0.0;
  trace::RankState traced_as = trace::RankState::kCompute;
};

/// Global collective barrier (mpi_barrier): the rank blocks (busy-waiting)
/// until every rank has arrived.
struct BarrierPhase {};

/// Nonblocking send (mpi_isend): posts the message and returns
/// immediately; the payload arrives at the receiver after the network
/// delay.
struct SendPhase {
  RankId peer;
  std::uint64_t bytes = 0;
  int tag = 0;
};

/// Nonblocking receive (mpi_irecv): posts a receive request to be
/// completed by a later WaitAllPhase.
struct RecvPhase {
  RankId peer;
  std::uint64_t bytes = 0;
  int tag = 0;
};

/// mpi_waitall over every receive posted since the last WaitAll: blocks
/// (busy-waiting) until all matching messages have arrived.
struct WaitAllPhase {};

/// Global reduction (mpi_allreduce): every rank contributes `bytes` and
/// blocks until the reduced result is back — a barrier whose release cost
/// models the 2*ceil(log2 N) tree exchange steps.
struct AllreducePhase {
  std::uint64_t bytes = 8;
};

/// Fixed-duration local activity: statistics at the end of a MetBench
/// iteration (black bars, paper Fig. 2), or the short communication-setup
/// phases of BT-MZ (paper §VII-B, ~0.1% of execution).
struct DelayPhase {
  SimTime duration = 0.0;
  trace::RankState traced_as = trace::RankState::kStat;
};

using Phase = std::variant<ComputePhase, BarrierPhase, SendPhase, RecvPhase,
                           WaitAllPhase, DelayPhase, AllreducePhase>;

struct RankProgram {
  std::vector<Phase> phases;

  RankProgram& compute(isa::KernelId kernel, double instructions,
                       trace::RankState traced_as = trace::RankState::kCompute);
  RankProgram& barrier();
  RankProgram& send(RankId peer, std::uint64_t bytes, int tag = 0);
  RankProgram& recv(RankId peer, std::uint64_t bytes, int tag = 0);
  RankProgram& wait_all();
  RankProgram& allreduce(std::uint64_t bytes = 8);
  RankProgram& delay(SimTime duration,
                     trace::RankState traced_as = trace::RankState::kStat);
};

/// A full MPI application: one program per rank.
struct Application {
  std::string name = "app";
  std::vector<RankProgram> ranks;

  [[nodiscard]] std::size_t size() const { return ranks.size(); }

  /// Structural sanity checks: peer ids in range, the *sequence* of
  /// collectives (barriers and allreduces, with payload sizes) identical
  /// across ranks (a mismatched collective would deadlock), every recv
  /// has a matching send and vice versa. Throws InvalidArgument.
  void validate() const;
};

/// Where each rank is pinned (the paper pins process Pi to CPUi by
/// default and remaps in some cases).
struct Placement {
  std::vector<CpuId> cpu_of_rank;

  /// Identity placement: rank i on linear CPU i.
  static Placement identity(std::size_t num_ranks,
                            std::uint32_t slots_per_core = 2);

  /// Placement from linear CPU numbers, e.g. {0, 2, 3, 1} puts rank 0 on
  /// core0/slot0, rank 1 on core1/slot0, rank 2 on core1/slot1, ...
  static Placement from_linear(const std::vector<std::uint32_t>& cpus,
                               std::uint32_t slots_per_core = 2);

  /// The one placement check, shared by Engine and ClusterPlacement: this
  /// map and `node_of_rank` agree in length, every node index is in range,
  /// every seat fits its node's chip (contexts_of_node[n] contexts,
  /// tpc_of_node[n]-way cores), and no two ranks share a (node, CPU) seat.
  /// Throws InvalidArgument naming the rank.
  void validate(const std::vector<std::uint32_t>& node_of_rank,
                const std::vector<std::uint32_t>& contexts_of_node,
                const std::vector<std::uint32_t>& tpc_of_node) const;
};

}  // namespace smtbal::mpisim
