#include "cluster/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "mpisim/sim.hpp"

namespace smtbal::cluster {

namespace {

/// Routes transfer pricing by placement: ranks on one node go through the
/// intra-node Network, cross-node ranks through the (stateful, contended)
/// Interconnect.
class ClusterCostModel final : public mpisim::MessageCostModel {
 public:
  ClusterCostModel(const mpisim::NetworkConfig& intra, Interconnect& inter,
                   const std::vector<std::uint32_t>& node_of_rank)
      : network_(intra), inter_(inter), node_of_rank_(node_of_rank) {}

  SimTime arrival_time(SimTime send_time, RankId src, RankId dst,
                       std::uint64_t bytes) override {
    const std::uint32_t src_node = node_of_rank_[src.value()];
    const std::uint32_t dst_node = node_of_rank_[dst.value()];
    if (src_node == dst_node) return network_.arrival_time(send_time, bytes);
    return inter_.transfer(send_time, src_node, dst_node, bytes);
  }

  SimTime collective_step_cost(std::uint64_t bytes) override {
    // The binomial tree's slowest step crosses nodes, so a multi-node
    // collective is paced by the pricier of the two paths; with one node
    // this is exactly the flat engine's cost (M=1 bit-identity).
    const SimTime intra = network_.arrival_time(0.0, bytes);
    if (inter_.num_nodes() <= 1) return intra;
    return std::max(intra, inter_.uncontended_cost(bytes));
  }

 private:
  mpisim::Network network_;
  Interconnect& inter_;
  const std::vector<std::uint32_t>& node_of_rank_;
};

}  // namespace

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

ClusterEngine::ClusterEngine(mpisim::Application app,
                             ClusterPlacement placement, ClusterConfig config)
    : ClusterEngine(std::move(app), std::move(placement), std::move(config),
                    nullptr) {}

ClusterEngine::ClusterEngine(mpisim::Application app,
                             ClusterPlacement placement, ClusterConfig config,
                             std::shared_ptr<smt::ThroughputSampler> sampler)
    : app_(std::move(app)),
      placement_(std::move(placement)),
      config_(std::move(config)),
      sampler_(std::move(sampler)),
      interconnect_(config_.interconnect, config_.num_nodes),
      migration_cost_(interconnect_, config_.migration) {
  config_.validate();
  migration_of_node_.resize(config_.num_nodes);
  chips_.reserve(config_.num_nodes);
  for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
    chips_.push_back(config_.node_chip(n));
  }
  // Nodes with the base chip share one sampler, so a load measured on any
  // of them is memoised for all of them. Each distinct overridden shape
  // gets its own sampler (measure() runs on that shape's chip), attached
  // to the base sampler's shared cache — shape-folded keys keep the
  // share collision-free.
  if (sampler_ == nullptr) {
    sampler_ = std::make_shared<smt::ThroughputSampler>(config_.node.chip,
                                                        config_.node.sampler);
  }
  samplers_.push_back(sampler_);
  sampler_of_node_.reserve(config_.num_nodes);
  for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
    std::shared_ptr<smt::ThroughputSampler> node_sampler;
    for (const auto& existing : samplers_) {
      if (existing->chip_config() == chips_[n]) {
        node_sampler = existing;
        break;
      }
    }
    if (node_sampler == nullptr) {
      node_sampler = std::make_shared<smt::ThroughputSampler>(
          chips_[n], config_.node.sampler);
      node_sampler->attach_shared_cache(sampler_->shared_cache());
      samplers_.push_back(node_sampler);
    }
    sampler_of_node_.push_back(node_sampler.get());
  }
  kernels_.reserve(config_.num_nodes);
  for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
    kernels_.push_back(std::make_unique<os::KernelModel>(
        config_.node.kernel_flavor, chips_[n]));
  }
  SMTBAL_REQUIRE(placement_.size() == app_.size(),
                 "cluster placement size must match rank count");
  std::vector<std::uint32_t> contexts_of_node;
  std::vector<std::uint32_t> tpc_of_node;
  contexts_of_node.reserve(config_.num_nodes);
  tpc_of_node.reserve(config_.num_nodes);
  for (const smt::ChipConfig& chip : chips_) {
    contexts_of_node.push_back(chip.num_contexts());
    tpc_of_node.push_back(chip.threads_per_core());
  }
  placement_.validate(contexts_of_node, tpc_of_node);
  app_.validate();
}

void ClusterEngine::add_observer(mpisim::SimObserver* observer) {
  SMTBAL_REQUIRE(observer != nullptr, "observer must not be null");
  SMTBAL_REQUIRE(!ran_, "add_observer must be called before run()");
  observers_.push_back(observer);
}

void ClusterEngine::check_rank(RankId rank, const char* who) const {
  if (rank.value() >= app_.size()) {
    throw InvalidArgument(std::string(who) + ": rank out of range — got rank " +
                          std::to_string(rank.value()) + ", have " +
                          std::to_string(app_.size()) + " rank(s)");
  }
}

int ClusterEngine::priority_sum(std::uint32_t node) const {
  const os::KernelModel& kernel = *kernels_[node];
  const smt::ChipConfig& chip = chips_[node];
  int sum = 0;
  for (std::uint32_t ctx = 0; ctx < chip.num_contexts(); ++ctx) {
    const CpuId cpu = chip.cpu(ctx);
    if (!kernel.process_on(cpu).has_value()) continue;
    sum += smt::level(kernel.effective_priority(cpu));
  }
  return sum;
}

std::uint32_t ClusterEngine::node_of(RankId rank) const {
  check_rank(rank, "node_of");
  return placement_.node_of_rank[rank.value()];
}

std::uint32_t ClusterEngine::threads_per_core_of(std::uint32_t node) const {
  if (node >= config_.num_nodes) {
    throw InvalidArgument("threads_per_core_of: node " + std::to_string(node) +
                          " out of range [0, " +
                          std::to_string(config_.num_nodes) + ")");
  }
  return chips_[node].threads_per_core();
}

std::uint32_t ClusterEngine::num_cores_of(std::uint32_t node) {
  if (node >= config_.num_nodes) {
    throw InvalidArgument("num_cores_of: node " + std::to_string(node) +
                          " out of range [0, " +
                          std::to_string(config_.num_nodes) + ")");
  }
  return chips_[node].num_cores;
}

void ClusterEngine::set_rank_priority(RankId rank, int priority) {
  SMTBAL_REQUIRE(!pid_of_rank_.empty(),
                 "set_rank_priority is only valid from policy hooks "
                 "(processes not spawned yet)");
  check_rank(rank, "set_rank_priority");
  const std::uint32_t node = placement_.node_of_rank[rank.value()];
  os::KernelModel& kernel = *kernels_[node];
  const Pid pid = pid_of_rank_[rank.value()];
  // A rank that already exited has no process to re-prioritise; ignore,
  // as a userspace balancer racing process exit would experience.
  const CpuId cpu = placement_.within.cpu_of_rank[rank.value()];
  if (kernel.process_on(cpu) != std::optional<Pid>(pid)) return;
  const int before = smt::level(kernel.effective_priority(cpu));
  if (!budgets_.empty()) {
    const int sum = priority_sum(node);
    if (sum - before + priority > budgets_[node]) {
      throw InvalidArgument(
          "set_rank_priority: raising rank " + std::to_string(rank.value()) +
          " from " + std::to_string(before) + " to " +
          std::to_string(priority) + " would push node " +
          std::to_string(node) + "'s priority sum to " +
          std::to_string(sum - before + priority) + ", over its budget of " +
          std::to_string(budgets_[node]));
    }
  }
  if (kernel.flavor() == os::KernelFlavor::kPatched) {
    kernel.write_hmt_priority(pid, priority);
  } else {
    // Vanilla kernel: userspace can only use the or-nop interface, which
    // is limited to priorities 2..4 (paper Table I).
    kernel.set_priority_ornop(pid, smt::priority_from_int(priority),
                              smt::PrivilegeLevel::kUser);
  }
  const int after = smt::level(kernel.effective_priority(cpu));
  // The Sim exists for the whole window in which policy hooks may fire
  // (run() builds it before on_start), so the notification always flows
  // through it and carries the real simulation time.
  if (after != before && sim_ != nullptr) {
    sim_->notify_priority_change(rank, before, after);
  }
}

int ClusterEngine::rank_priority(RankId rank) const {
  check_rank(rank, "rank_priority");
  const os::KernelModel& kernel =
      *kernels_[placement_.node_of_rank[rank.value()]];
  return smt::level(
      kernel.effective_priority(placement_.within.cpu_of_rank[rank.value()]));
}

void ClusterEngine::move_rank(RankId rank, CpuId to) {
  SMTBAL_REQUIRE(!pid_of_rank_.empty(),
                 "move_rank is only valid from policy hooks "
                 "(processes not spawned yet)");
  check_rank(rank, "move_rank");
  const std::uint32_t node = placement_.node_of_rank[rank.value()];
  const smt::ChipConfig& chip = chips_[node];
  if (to.linear(chip.threads_per_core()) >= chip.num_contexts() ||
      to.slot.value() >= chip.threads_per_core()) {
    throw InvalidArgument(
        "move_rank: target (core " + std::to_string(to.core.value()) +
        ", slot " + std::to_string(to.slot.value()) +
        ") is beyond the node chip's " + std::to_string(chip.num_contexts()) +
        " contexts");
  }
  os::KernelModel& kernel = *kernels_[node];
  const Pid pid = pid_of_rank_[rank.value()];
  const CpuId from = placement_.within.cpu_of_rank[rank.value()];
  // An exited rank has no process to migrate; ignore, like
  // set_rank_priority racing process exit.
  if (kernel.process_on(from) != std::optional<Pid>(pid)) return;
  if (from == to) return;
  kernel.migrate(pid, to);  // throws (value-bearing) on an occupied seat
  placement_.within.cpu_of_rank[rank.value()] = to;
  if (sim_ != nullptr) sim_->notify_placement_change(rank, from, to);
}

void ClusterEngine::swap_ranks(RankId a, RankId b) {
  SMTBAL_REQUIRE(!pid_of_rank_.empty(),
                 "swap_ranks is only valid from policy hooks "
                 "(processes not spawned yet)");
  check_rank(a, "swap_ranks");
  check_rank(b, "swap_ranks");
  if (a == b) return;
  const std::uint32_t node_a = placement_.node_of_rank[a.value()];
  const std::uint32_t node_b = placement_.node_of_rank[b.value()];
  if (node_a != node_b) {
    throw InvalidArgument(
        "swap_ranks: rank " + std::to_string(a.value()) + " (node " +
        std::to_string(node_a) + ") and rank " + std::to_string(b.value()) +
        " (node " + std::to_string(node_b) +
        ") live on different nodes — placement moves are within-node");
  }
  os::KernelModel& kernel = *kernels_[node_a];
  const CpuId cpu_a = placement_.within.cpu_of_rank[a.value()];
  const CpuId cpu_b = placement_.within.cpu_of_rank[b.value()];
  // A pair with an exited member is ignored, like set_rank_priority
  // racing process exit.
  if (kernel.process_on(cpu_a) != std::optional<Pid>(pid_of_rank_[a.value()]) ||
      kernel.process_on(cpu_b) != std::optional<Pid>(pid_of_rank_[b.value()])) {
    return;
  }
  kernel.swap_processes(pid_of_rank_[a.value()], pid_of_rank_[b.value()]);
  placement_.within.cpu_of_rank[a.value()] = cpu_b;
  placement_.within.cpu_of_rank[b.value()] = cpu_a;
  if (sim_ != nullptr) {
    sim_->notify_placement_change(a, cpu_a, cpu_b);
    sim_->notify_placement_change(b, cpu_b, cpu_a);
  }
}

void ClusterEngine::migrate_rank(RankId rank, std::uint32_t node, CpuId to) {
  SMTBAL_REQUIRE(!pid_of_rank_.empty(),
                 "migrate_rank is only valid from policy hooks "
                 "(processes not spawned yet)");
  check_rank(rank, "migrate_rank");
  if (node >= config_.num_nodes) {
    throw InvalidArgument("migrate_rank: node " + std::to_string(node) +
                          " out of range [0, " +
                          std::to_string(config_.num_nodes) + ")");
  }
  const std::uint32_t from_node = placement_.node_of_rank[rank.value()];
  if (node == from_node) {
    move_rank(rank, to);
    return;
  }
  const smt::ChipConfig& chip = chips_[node];
  if (to.linear(chip.threads_per_core()) >= chip.num_contexts() ||
      to.slot.value() >= chip.threads_per_core()) {
    throw InvalidArgument(
        "migrate_rank: target (core " + std::to_string(to.core.value()) +
        ", slot " + std::to_string(to.slot.value()) + ") is beyond node " +
        std::to_string(node) + "'s " + std::to_string(chip.num_contexts()) +
        " contexts");
  }
  os::KernelModel& from_kernel = *kernels_[from_node];
  os::KernelModel& to_kernel = *kernels_[node];
  const Pid pid = pid_of_rank_[rank.value()];
  const CpuId from = placement_.within.cpu_of_rank[rank.value()];
  // An exited rank has no process to migrate; ignore, like
  // set_rank_priority racing process exit.
  if (from_kernel.process_on(from) != std::optional<Pid>(pid)) return;
  if (to_kernel.process_on(to).has_value()) {
    throw InvalidArgument(
        "migrate_rank: target seat (node " + std::to_string(node) + ", core " +
        std::to_string(to.core.value()) + ", slot " +
        std::to_string(to.slot.value()) + ") already hosts a process");
  }
  const int level = smt::level(from_kernel.effective_priority(from));
  if (!budgets_.empty() && priority_sum(node) + level > budgets_[node]) {
    throw InvalidArgument(
        "migrate_rank: moving rank " + std::to_string(rank.value()) +
        " (priority " + std::to_string(level) + ") onto node " +
        std::to_string(node) + " would push its priority sum to " +
        std::to_string(priority_sum(node) + level) + ", over its budget of " +
        std::to_string(budgets_[node]));
  }
  // State handoff between the node kernels: the source tears the process
  // down, the target spawns it on the new seat, and the priority level
  // travels by rewrite (on a vanilla kernel userspace can only restore
  // levels in the or-nop band 2..4; others keep the spawn default).
  from_kernel.exit_process(pid);
  const Pid fresh = to_kernel.spawn(to);
  pid_of_rank_[rank.value()] = fresh;
  if (to_kernel.flavor() == os::KernelFlavor::kPatched) {
    to_kernel.write_hmt_priority(fresh, level);
  } else if (level >= 2 && level <= 4) {
    to_kernel.set_priority_ornop(fresh, smt::priority_from_int(level),
                                 smt::PrivilegeLevel::kUser);
  }
  placement_.node_of_rank[rank.value()] = node;
  placement_.within.cpu_of_rank[rank.value()] = to;
  const SimTime now = sim_ != nullptr ? sim_->now() : 0.0;
  const SimTime landed = migration_cost_.arrival_time(now, from_node, node);
  MigrationCounters& counters = migration_of_node_[from_node];
  ++counters.migrations;
  counters.bytes += config_.migration.resident_state_bytes;
  counters.stall += landed - now;
  if (sim_ != nullptr) {
    sim_->notify_rank_migration(rank, from_node, node, to, landed);
  }
}

void ClusterEngine::install_budgets(int per_node_budget) {
  for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
    const int sum = priority_sum(n);
    if (per_node_budget < sum) {
      throw InvalidArgument(
          "install_budgets: node " + std::to_string(n) +
          "'s current priority sum is " + std::to_string(sum) +
          ", over the requested budget of " + std::to_string(per_node_budget));
    }
  }
  budgets_.assign(config_.num_nodes, per_node_budget);
}

void ClusterEngine::transfer_budget(std::uint32_t from, std::uint32_t to,
                                    int amount) {
  SMTBAL_REQUIRE(!budgets_.empty(),
                 "transfer_budget requires install_budgets() first");
  if (from >= config_.num_nodes || to >= config_.num_nodes) {
    throw InvalidArgument(
        "transfer_budget: node " + std::to_string(std::max(from, to)) +
        " out of range [0, " + std::to_string(config_.num_nodes) + ")");
  }
  SMTBAL_REQUIRE(amount >= 0, "transfer_budget: amount must be >= 0");
  if (from == to || amount == 0) return;
  const int floor = priority_sum(from);
  if (budgets_[from] - amount < floor) {
    throw InvalidArgument(
        "transfer_budget: node " + std::to_string(from) + "'s budget of " +
        std::to_string(budgets_[from]) + " cannot give up " +
        std::to_string(amount) + " — its current priority sum is " +
        std::to_string(floor));
  }
  budgets_[from] -= amount;
  budgets_[to] += amount;
}

int ClusterEngine::node_budget(std::uint32_t node) const {
  if (node >= config_.num_nodes) {
    throw InvalidArgument("node_budget: node " + std::to_string(node) +
                          " out of range [0, " +
                          std::to_string(config_.num_nodes) + ")");
  }
  return budgets_.empty() ? mpisim::kUnlimitedBudget : budgets_[node];
}

ClusterRunResult ClusterEngine::run() {
  SMTBAL_REQUIRE(!ran_, "ClusterEngine::run() may be called only once");
  ran_ = true;

  mpisim::ObserverBus bus;
  for (mpisim::SimObserver* observer : observers_) bus.attach(observer);
  mpisim::TraceObserver trace_observer(app_.size());
  mpisim::MetricsObserver metrics_observer(app_.size());
  mpisim::PolicyObserver policy_observer(policy_, *this);
  bus.attach(&trace_observer);
  bus.attach(&metrics_observer);
  // Before the policy observer: a policy's on_epoch must see the traffic
  // accumulated up to the epoch boundary.
  bus.attach(&comm_observer_);
  if (policy_ != nullptr) bus.attach(&policy_observer);

  // Reset the live-run notification targets however run() exits.
  struct ActiveRun {
    ClusterEngine& engine;
    ~ActiveRun() {
      engine.sim_ = nullptr;
      engine.active_bus_ = nullptr;
    }
  } active{*this};
  active_bus_ = &bus;

  for (std::size_t r = 0; r < app_.size(); ++r) {
    pid_of_rank_.push_back(kernels_[placement_.node_of_rank[r]]->spawn(
        placement_.within.cpu_of_rank[r]));
  }

  // The Sim is built before the policy's on_start fires so pre-run
  // actuations (priorities, seat moves, migrations) flow through the same
  // notify paths as mid-run ones and observers see consistent (t = 0)
  // timestamps.
  std::vector<mpisim::detail::NodeCtx> nodes;
  nodes.reserve(config_.num_nodes);
  for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
    nodes.push_back(mpisim::detail::NodeCtx{&chips_[n], sampler_of_node_[n],
                                            kernels_[n].get()});
  }
  ClusterCostModel cost(config_.node.network, interconnect_,
                        placement_.node_of_rank);
  mpisim::detail::Sim sim(app_, placement_.within, placement_.node_of_rank,
                          config_.node, std::move(nodes), cost, pid_of_rank_,
                          bus);
  sim_ = &sim;

  bus.notify_start(app_.size());
  if (policy_ != nullptr) policy_->on_start(*this);
  const mpisim::detail::RunStats stats = sim.run();

  ClusterRunResult result;
  result.flat.trace = trace_observer.take();
  result.flat.exec_time = stats.end_time;
  result.flat.imbalance = result.flat.trace.imbalance();
  result.flat.events = stats.events;
  for (const auto& kernel : kernels_) {
    result.flat.priority_resets += kernel->priority_resets();
  }
  // Aggregate over the distinct samplers (just the base one on a
  // homogeneous cluster, so those totals are unchanged).
  for (const auto& sampler : samplers_) {
    result.flat.sampler_stats += sampler->stats();
  }
  result.flat.metrics = metrics_observer.take();

  result.node_of_rank = placement_.node_of_rank;
  result.nodes.assign(config_.num_nodes, NodeStats{});
  for (std::size_t r = 0; r < result.flat.metrics.ranks.size(); ++r) {
    NodeStats& node = result.nodes[placement_.node_of_rank[r]];
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
  for (std::size_t i = 1; i < samplers_.size(); ++i) {
    total += samplers_[i]->stats();
  }
  return total;
}

}  // namespace smtbal::cluster
