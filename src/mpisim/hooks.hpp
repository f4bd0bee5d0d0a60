// Balancing-policy hook interface: the observe → decide → actuate
// contract between the engines and the policy layer (src/policy/).
//
// The engine exposes two integration points to a policy:
//   * on_start  — before the first phase executes (set initial priorities;
//                 the paper's static approach lives entirely here)
//   * on_epoch  — every time all ranks have completed one more global
//                 synchronisation epoch (barrier or waitall), with the
//                 per-rank observations of the epoch (compute/wait times,
//                 issued instructions, IPC, decode share, priority,
//                 placement). This is where dynamic policies react.
//
// Since the event-kernel refactor, policies are dispatched through the
// simulation's observer bus (observer.hpp): the engine wraps the installed
// policy in a PolicyObserver, so on_epoch is just one more bus
// notification — alongside tracing and metrics — rather than a bespoke
// callback wired into the simulation core.
//
// The actuation surface has three knobs, all applied at epoch boundaries:
//   * priorities — set_rank_priority goes through the kernel interfaces
//     (the patched kernel's /proc/<pid>/hmt_priority file, or the or-nop
//     instructions on a vanilla kernel), exactly as a userspace balancer
//     on the paper's machine would;
//   * placement moves — move_rank / swap_ranks remap ranks to other
//     (core, slot) seats on their node, the OS migrating the pinned
//     process and the engine invalidating its sampler/prediction state
//     the same way it does for priority changes;
//   * per-node budgets — install_budgets / transfer_budget cap the sum of
//     priority levels per node and shift headroom between nodes, the
//     analogue of redistributing a per-node power budget (arXiv
//     1410.6824).
// mpisim::Engine, the one engine, is the only implementation of the
// control surface; per-node policies scope their work by rank set
// (EngineControl::node_of) instead of through a narrower adapter.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "smt/priority.hpp"

namespace smtbal::cluster {
class CommGraph;
}  // namespace smtbal::cluster

namespace smtbal::mpisim {

struct Placement;

/// Per-rank observations of one epoch. The time fields are the epoch's
/// accumulations; ipc/decode_share/priority/cpu are snapshots at the
/// epoch boundary.
struct RankEpochStats {
  SimTime compute = 0.0;  ///< time spent computing during the epoch
  SimTime wait = 0.0;     ///< time spent blocked in MPI during the epoch
  /// Instructions issued during the epoch (the compute-integration area:
  /// rate x time summed over the epoch's segments).
  double issued = 0.0;
  /// The rank's sampled IPC on its current context — the ILP proxy the
  /// ThroughputSampler measures (0 before the first sample).
  double ipc = 0.0;
  /// The rank's share of its core's total instruction throughput, in
  /// [0, 1] (0 before the first sample or when the core is idle).
  double decode_share = 0.0;
  /// Effective hardware priority level at the epoch boundary (0 = OFF,
  /// i.e. the rank already exited).
  int priority = 0;
  /// The rank's (core, slot) seat at the epoch boundary.
  CpuId cpu{};
};

struct EpochReport {
  int epoch = 0;         ///< 1-based count of completed epochs
  SimTime now = 0.0;     ///< simulation time at the epoch boundary
  std::vector<RankEpochStats> ranks;
};

/// node_budget() value when install_budgets() has not been called: the
/// per-node priority-weight sum is uncapped.
inline constexpr int kUnlimitedBudget = -1;

/// The engine-side control surface offered to policies. mpisim::Engine is
/// its one implementation; every call takes global rank ids and
/// within-node seats.
class EngineControl {
 public:
  virtual ~EngineControl() = default;

  /// Sets a rank's hardware priority through the kernel interface.
  /// Throws InvalidArgument if the kernel refuses (vanilla kernel,
  /// out-of-range value), the rank id is out of range, or the change
  /// would push the hosting node's priority-level sum over its installed
  /// budget.
  virtual void set_rank_priority(RankId rank, int priority) = 0;

  /// The rank's current effective hardware priority; 0 (OFF) once the
  /// rank exited, even if another rank has since moved onto its seat.
  /// Throws InvalidArgument (naming the rank and the valid range) when the
  /// rank id is out of range.
  [[nodiscard]] virtual int rank_priority(RankId rank) const = 0;

  [[nodiscard]] virtual const Placement& placement() const = 0;
  [[nodiscard]] virtual std::size_t num_ranks() const = 0;

  /// Number of cluster nodes behind this control (1 for the flat engine).
  [[nodiscard]] virtual std::uint32_t num_nodes() const = 0;

  /// SMT contexts per core of `node`'s chip. Nodes may differ (mixed-width
  /// clusters). Throws InvalidArgument on an out-of-range node id.
  [[nodiscard]] virtual std::uint32_t threads_per_core_of(
      std::uint32_t node) const = 0;

  /// Number of cores on `node`'s chip. Throws InvalidArgument on an
  /// out-of-range node id.
  [[nodiscard]] virtual std::uint32_t num_cores_of(std::uint32_t node) = 0;

  /// The node hosting `rank`. Throws InvalidArgument on an out-of-range
  /// rank id.
  [[nodiscard]] virtual std::uint32_t node_of(RankId rank) const = 0;

  /// Remaps `rank` to the free seat `to` on its current node (the OS
  /// migrates the pinned process; its priority travels with it). Throws
  /// InvalidArgument on an out-of-range rank or seat, or when the target
  /// seat already hosts a process. A rank that already exited is ignored.
  virtual void move_rank(RankId rank, CpuId to) = 0;

  /// Exchanges the seats of two ranks on the same node (priorities travel
  /// with the processes). Throws InvalidArgument on out-of-range ranks or
  /// a cross-node pair; a pair with an exited member is ignored.
  virtual void swap_ranks(RankId a, RankId b) = 0;

  /// Migrates `rank` to the free seat `to` on `node`, handing its process
  /// over between the node kernels (the priority travels by rewrite) and
  /// pricing the resident-state transfer onto the interconnect — the rank
  /// stalls until the state lands. Same-node targets degrade to
  /// move_rank. Throws InvalidArgument on an out-of-range rank, node or
  /// seat, or when the target seat already hosts a process; a rank that
  /// already exited is ignored.
  virtual void migrate_rank(RankId rank, std::uint32_t node, CpuId to) = 0;

  /// The accumulated rank-to-rank message-traffic graph of the run so
  /// far, or nullptr when the engine does not track one (flat engine).
  /// Never owning; valid until the run ends.
  [[nodiscard]] virtual const cluster::CommGraph* comm_graph() const = 0;

  /// Sum of the effective priority levels of `node`'s still-running ranks
  /// — the quantity install_budgets() caps. Throws InvalidArgument on an
  /// out-of-range node id.
  [[nodiscard]] virtual int node_priority_sum(std::uint32_t node) const = 0;

  /// Caps every node's priority-level sum at `per_node_budget` (the same
  /// cap on each node; transfer_budget shifts headroom afterwards).
  /// Throws InvalidArgument when any node's current sum already exceeds
  /// the cap, naming the node and its sum.
  virtual void install_budgets(int per_node_budget) = 0;

  /// Moves `amount` units of budget from node `from` to node `to`. The
  /// total across nodes is conserved by construction. Throws
  /// InvalidArgument when budgets are not installed, a node id is out of
  /// range, or the donor would drop below its current priority sum.
  virtual void transfer_budget(std::uint32_t from, std::uint32_t to,
                               int amount) = 0;

  /// The node's current budget, or kUnlimitedBudget when none is
  /// installed. Throws InvalidArgument on an out-of-range node id.
  [[nodiscard]] virtual int node_budget(std::uint32_t node) const = 0;
};

class BalancePolicy {
 public:
  virtual ~BalancePolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  virtual void on_start(EngineControl& control) { (void)control; }
  virtual void on_epoch(EngineControl& control, const EpochReport& report) {
    (void)control;
    (void)report;
  }
};

}  // namespace smtbal::mpisim
