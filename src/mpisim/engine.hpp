// Discrete-event MPI application engine, co-simulated with the SMT chip.
//
// The engine advances a set of rank programs through piecewise-constant-
// rate integration: whenever any context's (kernel, priority) pair
// changes — a rank blocks in MPI, a priority is rewritten, a noise event
// preempts a CPU — the per-context instruction rates are re-derived from
// the cycle-level chip model via the memoising ThroughputSampler, and the
// next event time is computed analytically. A blocked rank busy-waits
// (MPICH's progress loop), so it keeps occupying its SMT context with the
// spin kernel — the very reason hardware priorities help.
//
// Internally the engine is an event kernel (event_queue.hpp): completions
// are predicted into a binary-heap queue and popped in O(log ranks)
// instead of rescanning every rank per step, with stale predictions
// invalidated lazily by generation counters. Everything that happens is
// published on an ObserverBus (observer.hpp): tracing, metrics and
// balance-policy dispatch are observers, and callers can attach their own
// via add_observer().
//
// Engine is the only EngineControl implementation. It runs N nodes, each
// with its own chip, sampler and kernel model, and every actuation
// (priorities, seat moves, cross-node migration, per-node budgets) is
// defined once here, indexed by the rank's node. The public constructors
// build one node — the paper's OpenPower 710. cluster::ClusterEngine is a
// thin overlay that supplies the per-node shapes through the protected
// constructor and overrides three hooks: message pricing, one extra bus
// observer, and the cost of a cross-node migration.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/metrics.hpp"
#include "mpisim/network.hpp"
#include "mpisim/observer.hpp"
#include "mpisim/phase.hpp"
#include "os/kernel.hpp"
#include "os/noise.hpp"
#include "smt/sampler.hpp"
#include "trace/tracer.hpp"

namespace smtbal::mpisim {

class MessageCostModel;

namespace detail {
class Sim;
}  // namespace detail

struct EngineConfig {
  smt::ChipConfig chip;
  smt::ThroughputSampler::Options sampler{};
  os::KernelFlavor kernel_flavor = os::KernelFlavor::kPatched;
  NetworkConfig network{};
  /// OS noise injection; silent by default (the paper's tables measure
  /// intrinsic imbalance). Set noise_horizon > 0 to enable.
  os::NoiseConfig noise = os::NoiseConfig::silent();
  SimTime noise_horizon = 0.0;
  /// Collective release cost after the last rank arrives.
  SimTime barrier_latency = 2e-6;
  /// Kernel a blocked rank runs in its busy-wait loop.
  std::string spin_kernel = std::string(isa::kKernelSpinWait);
  /// Runaway guards.
  SimTime max_sim_time = 1e6;
  std::uint64_t max_events = 10'000'000;

  /// Structural sanity checks on the configuration itself: positive
  /// runaway guards, finite non-negative latencies, a registered spin
  /// kernel, a chip the sampler can model. Throws InvalidArgument with a
  /// message naming the offending field.
  void validate() const;
};

/// The outcome of one engine run. Move-only: it carries the full trace
/// (potentially millions of intervals), so aggregation layers hand it
/// around by move instead of copying.
struct RunResult {
  trace::Tracer trace{};
  SimTime exec_time = 0.0;
  double imbalance = 0.0;
  std::uint64_t events = 0;
  std::uint64_t priority_resets = 0;
  /// This run's own sampler lookups, misses and measurements: samplers
  /// may be shared across runs, so their lifetime counters are not.
  smt::SamplerStats sampler_stats;
  MetricsReport metrics;

  RunResult() = default;
  RunResult(RunResult&&) = default;
  RunResult& operator=(RunResult&&) = default;
  RunResult(const RunResult&) = delete;
  RunResult& operator=(const RunResult&) = delete;
};

class Engine : public EngineControl {
 public:
  /// Builds a one-node engine with its own sampler.
  Engine(Application app, Placement placement, EngineConfig config = {});

  /// Builds a one-node engine sharing a sampler with other runs of the
  /// same chip configuration (keeps the cycle-level memoisation warm
  /// across cases).
  Engine(Application app, Placement placement, EngineConfig config,
         std::shared_ptr<smt::ThroughputSampler> sampler);

  /// Installs a balancing policy (non-owning; must outlive run()).
  void set_policy(BalancePolicy* policy) { policy_ = policy; }

  /// Attaches an additional observer to the run's bus (non-owning; must
  /// outlive run()). Must be called before run().
  void add_observer(SimObserver* observer);

  /// Runs the application to completion and returns the trace + metrics.
  /// May be called once per Engine.
  RunResult run();

  /// Node `node`'s chip configuration.
  [[nodiscard]] const smt::ChipConfig& node_chip(std::uint32_t node) const {
    return nodes_.chips[node];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& node_of_rank() const {
    return node_of_rank_;
  }

  // --- EngineControl (global rank ids, within-node seats) --------------------
  void set_rank_priority(RankId rank, int priority) override;
  [[nodiscard]] int rank_priority(RankId rank) const override;
  [[nodiscard]] const Placement& placement() const override { return placement_; }
  [[nodiscard]] std::size_t num_ranks() const override { return app_.size(); }
  /// Node 0's kernel.
  [[nodiscard]] os::KernelModel& kernel() override { return kernels_[0]; }
  /// The base chip's SMT width (EngineConfig.chip).
  [[nodiscard]] std::uint32_t threads_per_core() const override {
    return config_.chip.threads_per_core();
  }
  [[nodiscard]] std::uint32_t num_nodes() const override {
    return static_cast<std::uint32_t>(nodes_.chips.size());
  }
  [[nodiscard]] std::uint32_t threads_per_core_of(
      std::uint32_t node) const override;
  [[nodiscard]] std::uint32_t num_cores_of(std::uint32_t node) override;
  [[nodiscard]] std::uint32_t node_of(RankId rank) const override;
  /// Within-node moves only: the target seat must be free on the rank's
  /// hosting node (cross-node moves go through migrate_rank).
  void move_rank(RankId rank, CpuId to) override;
  /// Same-node pairs only; throws a value-bearing error on a cross-node
  /// pair.
  void swap_ranks(RankId a, RankId b) override;
  /// Same-node targets degrade to move_rank. A cross-node migration hands
  /// the process over between the node kernels (the priority travels by
  /// rewrite), reseats the rank in the simulation core, and stalls it
  /// until migration_landing() says its resident state has arrived.
  void migrate_rank(RankId rank, std::uint32_t node, CpuId to) override;
  void install_budgets(int per_node_budget) override;
  void transfer_budget(std::uint32_t from, std::uint32_t to,
                       int amount) override;
  [[nodiscard]] int node_budget(std::uint32_t node) const override;

 protected:
  /// The per-node machine a multi-node subclass supplies.
  struct Nodes {
    std::vector<smt::ChipConfig> chips;  ///< one per node
    /// The distinct samplers, [0] the caller's base-chip sampler; run()
    /// reports their summed stats.
    std::vector<std::shared_ptr<smt::ThroughputSampler>> samplers;
    /// Each node's sampler, one of `samplers`.
    std::vector<smt::ThroughputSampler*> sampler_of_node;
  };

  /// One node per entry of `nodes.chips`; `node_of_rank` names each
  /// rank's node and `within` its seat there. `config` holds the knobs
  /// every node shares (kernel flavor, intra-node network, noise,
  /// barrier latency, runaway guards).
  Engine(Application app, const Placement& within,
         std::vector<std::uint32_t> node_of_rank, EngineConfig config,
         Nodes nodes);

  /// Prices the run's transfers; the base sends every one through the
  /// intra-node network. Called once, by run().
  [[nodiscard]] virtual std::unique_ptr<MessageCostModel> make_cost_model();
  /// A subclass's own observer, attached after tracing and metrics but
  /// ahead of the policy (so on_epoch sees it up to date); none here.
  [[nodiscard]] virtual SimObserver* overlay_observer() { return nullptr; }
  /// When a rank leaving `from_node` at `now` lands on `to_node`; free and
  /// instant here.
  virtual SimTime migration_landing(SimTime now, std::uint32_t from_node,
                                    std::uint32_t to_node);

  [[nodiscard]] const Nodes& nodes() const { return nodes_; }

 private:
  void require_spawned(const char* who) const;
  /// Throws a value-bearing InvalidArgument unless `rank` is in range.
  void check_rank(RankId rank, const char* who) const;
  void check_node(std::uint32_t node, const char* who) const;
  /// Throws unless `to` is a seat on `node`'s chip.
  void check_seat(std::uint32_t node, CpuId to, const char* who) const;
  /// Sum of effective priority levels over `node`'s engaged contexts (the
  /// quantity an installed budget caps).
  [[nodiscard]] int priority_sum(std::uint32_t node) const;

  Application app_;
  Placement placement_;
  std::vector<std::uint32_t> node_of_rank_;
  EngineConfig config_;
  Nodes nodes_;
  std::vector<os::KernelModel> kernels_;
  BalancePolicy* policy_ = nullptr;
  std::vector<SimObserver*> observers_;
  std::vector<Pid> pid_of_rank_;
  /// Per-node priority-weight budgets; empty until install_budgets().
  std::vector<int> budgets_;
  bool ran_ = false;
  /// Set while run() is live so actuations can notify the bus with the
  /// current simulation time and invalidate cached rates.
  detail::Sim* sim_ = nullptr;
};

}  // namespace smtbal::mpisim
