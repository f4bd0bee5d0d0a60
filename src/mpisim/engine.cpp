#include "mpisim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "mpisim/sim.hpp"

namespace smtbal::mpisim {

void EngineConfig::validate() const {
  chip.validate();
  network.validate();
  if (chip.num_contexts() > smt::kMaxContexts) {
    std::ostringstream os;
    os << "EngineConfig.chip has " << chip.num_contexts()
       << " contexts but the sampler supports at most " << smt::kMaxContexts
       << " (smt::kMaxContexts); split the machine into cluster nodes "
          "(cluster::ClusterEngine) or shrink the chip";
    throw InvalidArgument(os.str());
  }
  SMTBAL_REQUIRE(std::isfinite(max_sim_time) && max_sim_time > 0.0,
                 "EngineConfig.max_sim_time must be positive and finite");
  SMTBAL_REQUIRE(max_events > 0, "EngineConfig.max_events must be positive");
  SMTBAL_REQUIRE(std::isfinite(barrier_latency) && barrier_latency >= 0.0,
                 "EngineConfig.barrier_latency must be non-negative and "
                 "finite");
  SMTBAL_REQUIRE(std::isfinite(noise_horizon) && noise_horizon >= 0.0,
                 "EngineConfig.noise_horizon must be non-negative and finite");
  try {
    (void)isa::KernelRegistry::instance().by_name(spin_kernel);
  } catch (const std::exception&) {
    throw InvalidArgument("EngineConfig.spin_kernel '" + spin_kernel +
                          "' is not a registered kernel");
  }
}

namespace {

std::shared_ptr<smt::ThroughputSampler> make_own_sampler(
    const EngineConfig& config) {
  // Validate before the sampler touches the chip config so a broken
  // configuration fails with a structured error from either constructor.
  config.validate();
  return std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);
}

}  // namespace

Engine::Engine(Application app, Placement placement, EngineConfig config)
    : Engine(std::move(app), std::move(placement), config,
             make_own_sampler(config)) {}

Engine::Engine(Application app, Placement placement, EngineConfig config,
               std::shared_ptr<smt::ThroughputSampler> sampler)
    : Engine(std::move(app), placement,
             std::vector<std::uint32_t>(placement.cpu_of_rank.size(), 0),
             config, Nodes{{config.chip}, {sampler}, {sampler.get()}}) {}

Engine::Engine(Application app, const Placement& within,
               std::vector<std::uint32_t> node_of_rank, EngineConfig config,
               Nodes nodes)
    : app_(std::move(app)),
      placement_(within),
      node_of_rank_(std::move(node_of_rank)),
      config_(std::move(config)),
      network_(config_.network),
      nodes_(std::move(nodes)) {
  config_.validate();
  for (const smt::ThroughputSampler* sampler : nodes_.sampler_of_node) {
    SMTBAL_REQUIRE(sampler != nullptr, "sampler must not be null");
  }
  SMTBAL_REQUIRE(node_of_rank_.size() == app_.size(),
                 "placement size must match rank count");
  std::vector<std::uint32_t> contexts_of_node;
  std::vector<std::uint32_t> tpc_of_node;
  kernels_.reserve(nodes_.chips.size());
  for (const smt::ChipConfig& chip : nodes_.chips) {
    contexts_of_node.push_back(chip.num_contexts());
    tpc_of_node.push_back(chip.threads_per_core());
    kernels_.emplace_back(config_.kernel_flavor, chip);
  }
  placement_.validate(node_of_rank_, contexts_of_node, tpc_of_node);
  app_.validate();
}

void Engine::add_observer(SimObserver* observer) {
  SMTBAL_REQUIRE(observer != nullptr, "observer must not be null");
  SMTBAL_REQUIRE(!ran_, "add_observer must be called before run()");
  observers_.push_back(observer);
}

void Engine::require_spawned(const char* who) const {
  if (pid_of_rank_.empty()) {
    throw InvalidArgument(std::string(who) +
                          " is only valid from policy hooks (processes not "
                          "spawned yet)");
  }
}

void Engine::check_rank(RankId rank, const char* who) const {
  if (rank.value() >= app_.size()) {
    throw InvalidArgument(std::string(who) + ": rank out of range — got rank " +
                          std::to_string(rank.value()) + ", have " +
                          std::to_string(app_.size()) + " rank(s)");
  }
}

void Engine::check_node(std::uint32_t node, const char* who) const {
  if (node >= num_nodes()) {
    throw InvalidArgument(std::string(who) + ": node " + std::to_string(node) +
                          " out of range [0, " + std::to_string(num_nodes()) +
                          ")");
  }
}

void Engine::check_seat(std::uint32_t node, CpuId to, const char* who) const {
  const smt::ChipConfig& chip = nodes_.chips[node];
  if (to.linear(chip.threads_per_core()) >= chip.num_contexts() ||
      to.slot.value() >= chip.threads_per_core()) {
    throw InvalidArgument(
        std::string(who) + ": target (core " + std::to_string(to.core.value()) +
        ", slot " + std::to_string(to.slot.value()) + ") is beyond node " +
        std::to_string(node) + "'s " + std::to_string(chip.num_contexts()) +
        " contexts (" + std::to_string(chip.threads_per_core()) +
        "-way SMT)");
  }
}

int Engine::node_priority_sum(std::uint32_t node) const {
  check_node(node, "node_priority_sum");
  const os::KernelModel& kernel = kernels_[node];
  const smt::ChipConfig& chip = nodes_.chips[node];
  int sum = 0;
  for (std::uint32_t ctx = 0; ctx < chip.num_contexts(); ++ctx) {
    const CpuId cpu = chip.cpu(ctx);
    if (!kernel.process_on(cpu).has_value()) continue;
    sum += smt::level(kernel.effective_priority(cpu));
  }
  return sum;
}

std::uint32_t Engine::threads_per_core_of(std::uint32_t node) const {
  check_node(node, "threads_per_core_of");
  return nodes_.chips[node].threads_per_core();
}

std::uint32_t Engine::num_cores_of(std::uint32_t node) {
  check_node(node, "num_cores_of");
  return nodes_.chips[node].num_cores;
}

std::uint32_t Engine::node_of(RankId rank) const {
  check_rank(rank, "node_of");
  return node_of_rank_[rank.value()];
}

void Engine::set_rank_priority(RankId rank, int priority) {
  require_spawned("set_rank_priority");
  check_rank(rank, "set_rank_priority");
  const std::uint32_t node = node_of_rank_[rank.value()];
  os::KernelModel& kernel = kernels_[node];
  const Pid pid = pid_of_rank_[rank.value()];
  // A rank that already exited has no process to re-prioritise (its
  // /proc/<pid>/hmt_priority file is gone); ignore, as a userspace
  // balancer racing process exit would experience.
  const CpuId cpu = placement_.cpu_of_rank[rank.value()];
  if (kernel.process_on(cpu) != std::optional<Pid>(pid)) return;
  const int before = smt::level(kernel.effective_priority(cpu));
  if (!budgets_.empty()) {
    const int sum = node_priority_sum(node);
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

int Engine::rank_priority(RankId rank) const {
  check_rank(rank, "rank_priority");
  const std::size_t r = rank.value();
  const os::KernelModel& kernel = kernels_[node_of_rank_[r]];
  const CpuId cpu = placement_.cpu_of_rank[r];
  // An exited rank reads OFF even after another rank moved onto its seat.
  if (!pid_of_rank_.empty() &&
      kernel.process_on(cpu) != std::optional<Pid>(pid_of_rank_[r])) {
    return 0;
  }
  return smt::level(kernel.effective_priority(cpu));
}

void Engine::move_rank(RankId rank, CpuId to) {
  require_spawned("move_rank");
  check_rank(rank, "move_rank");
  const std::uint32_t node = node_of_rank_[rank.value()];
  check_seat(node, to, "move_rank");
  os::KernelModel& kernel = kernels_[node];
  const Pid pid = pid_of_rank_[rank.value()];
  const CpuId from = placement_.cpu_of_rank[rank.value()];
  // An exited rank has no process to migrate; ignore, like
  // set_rank_priority racing process exit.
  if (kernel.process_on(from) != std::optional<Pid>(pid)) return;
  if (from == to) return;
  kernel.migrate(pid, to);  // throws (value-bearing) on an occupied seat
  placement_.cpu_of_rank[rank.value()] = to;
  if (sim_ != nullptr) sim_->notify_placement_change(rank, from, to);
}

void Engine::swap_ranks(RankId a, RankId b) {
  require_spawned("swap_ranks");
  check_rank(a, "swap_ranks");
  check_rank(b, "swap_ranks");
  if (a == b) return;
  const std::uint32_t node_a = node_of_rank_[a.value()];
  const std::uint32_t node_b = node_of_rank_[b.value()];
  if (node_a != node_b) {
    throw InvalidArgument(
        "swap_ranks: rank " + std::to_string(a.value()) + " (node " +
        std::to_string(node_a) + ") and rank " + std::to_string(b.value()) +
        " (node " + std::to_string(node_b) +
        ") live on different nodes — placement moves are within-node");
  }
  os::KernelModel& kernel = kernels_[node_a];
  const CpuId cpu_a = placement_.cpu_of_rank[a.value()];
  const CpuId cpu_b = placement_.cpu_of_rank[b.value()];
  // A pair with an exited member is ignored, like set_rank_priority
  // racing process exit.
  if (kernel.process_on(cpu_a) != std::optional<Pid>(pid_of_rank_[a.value()]) ||
      kernel.process_on(cpu_b) != std::optional<Pid>(pid_of_rank_[b.value()])) {
    return;
  }
  kernel.swap_processes(pid_of_rank_[a.value()], pid_of_rank_[b.value()]);
  placement_.cpu_of_rank[a.value()] = cpu_b;
  placement_.cpu_of_rank[b.value()] = cpu_a;
  if (sim_ != nullptr) {
    sim_->notify_placement_change(a, cpu_a, cpu_b);
    sim_->notify_placement_change(b, cpu_b, cpu_a);
  }
}

void Engine::migrate_rank(RankId rank, std::uint32_t node, CpuId to) {
  require_spawned("migrate_rank");
  check_rank(rank, "migrate_rank");
  check_node(node, "migrate_rank");
  const std::uint32_t from_node = node_of_rank_[rank.value()];
  if (node == from_node) {
    move_rank(rank, to);
    return;
  }
  check_seat(node, to, "migrate_rank");
  os::KernelModel& from_kernel = kernels_[from_node];
  os::KernelModel& to_kernel = kernels_[node];
  const Pid pid = pid_of_rank_[rank.value()];
  const CpuId from = placement_.cpu_of_rank[rank.value()];
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
  if (!budgets_.empty() && node_priority_sum(node) + level > budgets_[node]) {
    throw InvalidArgument(
        "migrate_rank: moving rank " + std::to_string(rank.value()) +
        " (priority " + std::to_string(level) + ") onto node " +
        std::to_string(node) + " would push its priority sum to " +
        std::to_string(node_priority_sum(node) + level) +
        ", over its budget of " + std::to_string(budgets_[node]));
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
  node_of_rank_[rank.value()] = node;
  placement_.cpu_of_rank[rank.value()] = to;
  const SimTime now = sim_ != nullptr ? sim_->now() : 0.0;
  const SimTime landed = migration_landing(now, from_node, node);
  if (sim_ != nullptr) {
    sim_->notify_rank_migration(rank, from_node, node, to, landed);
  }
}

void Engine::install_budgets(int per_node_budget) {
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    const int sum = node_priority_sum(n);
    if (per_node_budget < sum) {
      throw InvalidArgument(
          "install_budgets: node " + std::to_string(n) +
          "'s current priority sum is " + std::to_string(sum) +
          ", over the requested budget of " + std::to_string(per_node_budget));
    }
  }
  budgets_.assign(num_nodes(), per_node_budget);
}

void Engine::transfer_budget(std::uint32_t from, std::uint32_t to,
                             int amount) {
  SMTBAL_REQUIRE(!budgets_.empty(),
                 "transfer_budget requires install_budgets() first");
  check_node(std::max(from, to), "transfer_budget");
  SMTBAL_REQUIRE(amount >= 0, "transfer_budget: amount must be >= 0");
  if (from == to || amount == 0) return;
  const int floor = node_priority_sum(from);
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

int Engine::node_budget(std::uint32_t node) const {
  check_node(node, "node_budget");
  return budgets_.empty() ? kUnlimitedBudget : budgets_[node];
}

SimTime Engine::arrival_time(SimTime send_time, RankId /*src*/,
                             RankId /*dst*/, std::uint64_t bytes) {
  return network_.arrival_time(send_time, bytes);
}

SimTime Engine::collective_step_cost(std::uint64_t bytes) {
  return network_.arrival_time(0.0, bytes);
}

SimTime Engine::migration_landing(SimTime now, std::uint32_t /*from_node*/,
                                  std::uint32_t /*to_node*/) {
  return now;
}

RunResult Engine::run() {
  SMTBAL_REQUIRE(!ran_, "Engine::run() may be called only once");
  ran_ = true;

  ObserverBus bus;
  for (SimObserver* observer : observers_) bus.attach(observer);
  TraceObserver trace_observer(app_.size());
  MetricsObserver metrics_observer(app_.size());
  PolicyObserver policy_observer(policy_, *this);
  bus.attach(&trace_observer);
  bus.attach(&metrics_observer);
  if (SimObserver* overlay = overlay_observer()) bus.attach(overlay);
  if (policy_ != nullptr) bus.attach(&policy_observer);

  // Reset the live-run notification target however run() exits.
  struct ActiveRun {
    Engine& engine;
    ~ActiveRun() { engine.sim_ = nullptr; }
  } active{*this};

  smt::SamplerStats sampler_before;
  for (const auto& sampler : nodes_.samplers) {
    sampler_before += sampler->stats();
  }

  for (std::size_t r = 0; r < app_.size(); ++r) {
    pid_of_rank_.push_back(
        kernels_[node_of_rank_[r]].spawn(placement_.cpu_of_rank[r]));
  }

  // The Sim is built before the policy's on_start fires so pre-run
  // actuations (priorities, seat moves, migrations) flow through the same
  // notify paths as mid-run ones and observers see consistent (t = 0)
  // timestamps.
  std::vector<detail::NodeCtx> nodes;
  nodes.reserve(num_nodes());
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    nodes.push_back(detail::NodeCtx{&nodes_.chips[n],
                                    nodes_.sampler_of_node[n], &kernels_[n]});
  }
  detail::Sim sim(app_, placement_, node_of_rank_, config_, std::move(nodes),
                  *this, pid_of_rank_, bus);
  sim_ = &sim;

  bus.notify_start(app_.size());
  if (policy_ != nullptr) policy_->on_start(*this);
  const detail::RunStats stats = sim.run();

  RunResult result;
  result.trace = trace_observer.take();
  result.exec_time = stats.end_time;
  result.imbalance = result.trace.imbalance();
  result.events = stats.events;
  for (const os::KernelModel& kernel : kernels_) {
    result.priority_resets += kernel.priority_resets();
  }
  for (const auto& sampler : nodes_.samplers) {
    result.sampler_stats += sampler->stats();
  }
  result.sampler_stats -= sampler_before;
  result.metrics = metrics_observer.take();
  return result;
}

}  // namespace smtbal::mpisim
