#include "simcheck/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "mpisim/event.hpp"
#include "mpisim/network.hpp"
#include "mpisim/rank_state.hpp"
#include "os/kernel.hpp"
#include "os/noise.hpp"
#include "smt/sampler.hpp"

namespace smtbal::simcheck {

namespace {

using mpisim::Event;
using mpisim::EventKind;
using mpisim::RunState;

constexpr SimTime kTimeEps = 1e-12;  // the engine's simultaneity tolerance

/// Mirror of the engine's per-rank runtime, minus the lazy-invalidation
/// bookkeeping (no generation counter: a stale prediction is erased from
/// the pending list instead).
struct OracleRank {
  std::size_t phase = 0;
  RunState state = RunState::kComputing;
  isa::KernelId kernel = 0;
  trace::RankState compute_traced_as = trace::RankState::kCompute;
  trace::RankState delay_traced_as = trace::RankState::kStat;
  SimTime delay_until = 0.0;
  SimTime ready_at = mpisim::kSimInf;
  std::vector<mpisim::RecvReq> posted;
  int epochs = 0;

  double remaining = 0.0;
  double rate = 0.0;
  SimTime accrued_at = 0.0;
  bool has_pred = false;       ///< a kComputeDone sits in the pending list
  bool fresh_compute = false;  ///< entered/resumed compute since last refresh

  trace::RankState shown = trace::RankState::kInit;
  SimTime state_since = 0.0;
  SimTime acc_compute = 0.0;
  SimTime acc_wait = 0.0;
  SimTime wait_since = 0.0;
};

class Oracle {
 public:
  Oracle(const mpisim::Application& app, const mpisim::Placement& placement,
         const mpisim::EngineConfig& config,
         const std::vector<int>& initial_priorities)
      : app_(app),
        placement_(placement),
        config_(config),
        sampler_(config.chip, config.sampler),
        kernel_(config.kernel_flavor, config.chip),
        network_(config.network),
        tracer_(app.size()),
        metrics_(app.size()),
        ranks_(app.size()),
        spin_kernel_(
            isa::KernelRegistry::instance().by_name(config.spin_kernel).id) {
    config_.validate();
    SMTBAL_REQUIRE(placement_.cpu_of_rank.size() == app_.size(),
                   "placement size must match rank count");
    SMTBAL_REQUIRE(
        initial_priorities.empty() || initial_priorities.size() == app_.size(),
        "initial_priorities must be empty or one level per rank");
    app_.validate();

    const std::uint32_t tpc = config_.chip.threads_per_core();
    rank_on_linear_.assign(config_.chip.num_contexts(), -1);
    preempt_until_.assign(config_.chip.num_contexts(), 0.0);
    lin_of_rank_.resize(app_.size());
    for (std::size_t r = 0; r < app_.size(); ++r) {
      const std::uint32_t lin = placement_.cpu_of_rank[r].linear(tpc);
      SMTBAL_REQUIRE(lin < config_.chip.num_contexts(),
                     "placement assigns a rank to a CPU beyond "
                     "chip.num_contexts()");
      lin_of_rank_[r] = lin;
      rank_on_linear_[lin] = static_cast<int>(r);
      pids_.push_back(kernel_.spawn(placement_.cpu_of_rank[r]));
    }
    if (config_.noise_horizon > 0.0) {
      noise_ = os::NoiseSource(config_.noise, config_.noise_horizon,
                               config_.chip.num_contexts(), tpc);
    }

    // Static priorities go through the same kernel interface (and the
    // same before/after change detection) as Engine::set_rank_priority
    // driven by a policy's on_start, before the event loop exists.
    for (std::size_t r = 0; r < initial_priorities.size(); ++r) {
      apply_initial_priority(r, initial_priorities[r]);
    }
  }

  OracleResult run();

 private:
  // --- pending-event list (the naive part) ---------------------------------
  void push(SimTime time, EventKind kind, std::uint32_t subject = 0,
            mpisim::MsgPayload msg = {}) {
    Event event;
    event.time = time;
    event.seq = next_seq_++;
    event.kind = kind;
    event.subject = subject;
    event.msg = msg;
    pending_.push_back(event);
  }

  /// Linear min-scan over the unsorted list, (time, seq) order — the
  /// O(ranks) rescan the production heap replaced.
  Event pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      const Event& e = pending_[i];
      const Event& b = pending_[best];
      if (e.time < b.time || (e.time == b.time && e.seq < b.seq)) best = i;
    }
    const Event event = pending_[best];
    pending_.erase(pending_.begin() +
                   static_cast<std::ptrdiff_t>(best));
    return event;
  }

  /// Eager invalidation: remove the rank's queued compute prediction (the
  /// engine leaves it in the heap and bumps a generation counter).
  void erase_prediction(std::size_t rank) {
    std::erase_if(pending_, [&](const Event& e) {
      return e.kind == EventKind::kComputeDone && e.subject == rank;
    });
    ranks_[rank].has_pred = false;
  }

  // --- mirrored engine mechanics -------------------------------------------
  [[nodiscard]] bool preempted(std::size_t rank) const {
    return preempt_until_[lin_of_rank_[rank]] > now_ + kTimeEps;
  }
  [[nodiscard]] bool all_done() const { return done_count_ == ranks_.size(); }

  void apply_initial_priority(std::size_t rank, int priority);
  void set_trace(std::size_t rank, trace::RankState state);
  void emit_meta(EventKind kind, std::uint32_t subject);
  void finish_rank(std::size_t rank);
  void accrue(std::size_t rank);
  void start_segment(std::size_t rank, double rate);
  void refresh_rates();
  [[nodiscard]] smt::ChipLoad build_load() const;
  bool match_all(std::size_t rank, SimTime& max_arrival);
  void notify_receiver(std::size_t rank);
  void complete_block(std::size_t rank);
  void release_due();
  void arrive_collective(std::size_t rank, SimTime release_cost);
  void advance_rank(std::size_t rank);
  void schedule_next_noise();
  void on_noise_preempt();
  void on_noise_resume(std::uint32_t lin);
  void dispatch(const Event& event);
  bool check_epochs();
  [[noreturn]] void deadlock() const;

  const mpisim::Application& app_;
  const mpisim::Placement& placement_;
  mpisim::EngineConfig config_;
  smt::ThroughputSampler sampler_;
  std::vector<smt::ChipLoad> loads_;  ///< distinct sampled loads (misses)
  os::KernelModel kernel_;
  mpisim::Network network_;
  trace::Tracer tracer_;
  mpisim::MetricsObserver metrics_;

  std::vector<OracleRank> ranks_;
  isa::KernelId spin_kernel_;
  std::vector<Pid> pids_;
  std::vector<std::uint32_t> lin_of_rank_;
  std::vector<int> rank_on_linear_;
  std::vector<SimTime> preempt_until_;
  os::NoiseSource noise_;

  std::vector<Event> pending_;
  std::uint64_t next_seq_ = 0;

  // Point-to-point mailbox: FIFO per (src, dst, tag) channel, MPI's
  // non-overtaking guarantee.
  std::map<std::tuple<std::uint32_t, std::uint32_t, int>, std::deque<SimTime>>
      messages_;
  // Global-collective arrival counter and the re-entrant release queue.
  std::size_t barrier_arrived_ = 0;
  std::vector<std::size_t> release_queue_;
  bool releasing_ = false;

  std::size_t done_count_ = 0;
  int reported_epochs_ = 0;
  bool epochs_dirty_ = false;
  SimTime now_ = 0.0;
  std::uint64_t events_ = 0;
  std::uint64_t pops_ = 0;
};

void Oracle::apply_initial_priority(std::size_t rank, int priority) {
  const CpuId cpu = placement_.cpu_of_rank[rank];
  if (kernel_.process_on(cpu) != std::optional<Pid>(pids_[rank])) return;
  const int before = smt::level(kernel_.effective_priority(cpu));
  if (kernel_.flavor() == os::KernelFlavor::kPatched) {
    kernel_.write_hmt_priority(pids_[rank], priority);
  } else {
    kernel_.set_priority_ornop(pids_[rank], smt::priority_from_int(priority),
                               smt::PrivilegeLevel::kUser);
  }
  const int after = smt::level(kernel_.effective_priority(cpu));
  if (after != before) {
    metrics_.on_priority_change(RankId{static_cast<std::uint32_t>(rank)},
                                before, after, 0.0);
  }
}

void Oracle::set_trace(std::size_t rank, trace::RankState state) {
  OracleRank& rt = ranks_[rank];
  if (rt.shown == state) return;
  if (now_ > rt.state_since && rt.shown != trace::RankState::kDone) {
    const RankId id{static_cast<std::uint32_t>(rank)};
    tracer_.record(id, rt.state_since, now_, rt.shown);
    metrics_.on_interval(id, rt.state_since, now_, rt.shown);
  }
  rt.state_since = now_;
  rt.shown = state;
}

void Oracle::emit_meta(EventKind kind, std::uint32_t subject) {
  Event event;
  event.time = now_;
  event.kind = kind;
  event.subject = subject;
  metrics_.on_event(event);
}

void Oracle::finish_rank(std::size_t rank) {
  OracleRank& rt = ranks_[rank];
  rt.state = RunState::kDone;
  set_trace(rank, trace::RankState::kDone);
  kernel_.exit_process(pids_[rank]);
  ++done_count_;
}

void Oracle::accrue(std::size_t rank) {
  OracleRank& rt = ranks_[rank];
  const SimTime dt = now_ - rt.accrued_at;
  if (dt > 0.0) {
    rt.remaining -= rt.rate * dt;
    rt.acc_compute += dt;
  }
  rt.accrued_at = now_;
}

void Oracle::start_segment(std::size_t rank, double rate) {
  OracleRank& rt = ranks_[rank];
  rt.rate = rate;
  rt.accrued_at = now_;
  erase_prediction(rank);
  if (rate > 0.0) {
    push(now_ + rt.remaining / rate, EventKind::kComputeDone,
         static_cast<std::uint32_t>(rank));
    rt.has_pred = true;
  }
}

/// Always-resample refresh: no load-key skip, no deferred fresh-compute
/// list — the chip is re-sampled and every computing rank re-examined on
/// every call. Starts a segment only when the paced engine observably
/// would (a fresh segment, or a rate that differs from the running one),
/// so the prediction *push order* matches the engine's for simultaneous
/// events.
void Oracle::refresh_rates() {
  const smt::ChipLoad load = build_load();
  const std::uint64_t misses = sampler_.stats().misses;
  const smt::SampleResult& rates = sampler_.sample(load);
  if (sampler_.stats().misses != misses) loads_.push_back(load);
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    OracleRank& rt = ranks_[r];
    const bool fresh = rt.fresh_compute;
    rt.fresh_compute = false;
    if (rt.state != RunState::kComputing || preempted(r)) continue;
    const double rate = rates.instr_rate[lin_of_rank_[r]];
    if (!rt.has_pred) {
      if (fresh || rate != rt.rate) start_segment(r, rate);
    } else if (rate != rt.rate) {
      accrue(r);
      start_segment(r, rate);
    }
  }
}

smt::ChipLoad Oracle::build_load() const {
  smt::ChipLoad load;
  for (std::uint32_t ctx = 0; ctx < config_.chip.num_contexts(); ++ctx) {
    const CpuId cpu = config_.chip.cpu(ctx);
    if (!kernel_.process_on(cpu).has_value()) continue;  // idle
    const int rank = rank_on_linear_[ctx];
    SMTBAL_CHECK(rank >= 0);
    const OracleRank& rt = ranks_[static_cast<std::size_t>(rank)];
    const bool computing = rt.state == RunState::kComputing &&
                           !preempted(static_cast<std::size_t>(rank));
    load.contexts[ctx] =
        smt::ContextLoad{computing ? rt.kernel : spin_kernel_,
                         kernel_.effective_priority(cpu)};
  }
  return load;
}

bool Oracle::match_all(std::size_t rank, SimTime& max_arrival) {
  max_arrival = 0.0;
  bool all = true;
  for (mpisim::RecvReq& req : ranks_[rank].posted) {
    if (!req.matched) {
      const auto key =
          std::tuple{req.peer, static_cast<std::uint32_t>(rank), req.tag};
      auto it = messages_.find(key);
      if (it != messages_.end() && !it->second.empty()) {
        req.matched = true;
        req.arrival = it->second.front();
        it->second.pop_front();
      }
    }
    if (req.matched) {
      max_arrival = std::max(max_arrival, req.arrival);
    } else {
      all = false;
    }
  }
  return all;
}

void Oracle::notify_receiver(std::size_t rank) {
  OracleRank& rt = ranks_[rank];
  if (rt.state != RunState::kAtWaitAll) return;
  SimTime max_arrival = 0.0;
  if (match_all(rank, max_arrival)) {
    rt.ready_at = std::max(max_arrival, now_);
    if (rt.ready_at <= now_ + kTimeEps) complete_block(rank);
  }
}

void Oracle::complete_block(std::size_t rank) {
  OracleRank& rt = ranks_[rank];
  switch (rt.state) {
    case RunState::kComputing:
    case RunState::kDelaying:
      break;
    case RunState::kAtBarrier:
      rt.acc_wait += now_ - rt.wait_since;
      ++rt.epochs;
      epochs_dirty_ = true;
      break;
    case RunState::kAtWaitAll:
      rt.acc_wait += now_ - rt.wait_since;
      rt.posted.clear();
      ++rt.epochs;
      epochs_dirty_ = true;
      break;
    case RunState::kDone:
      return;
  }
  rt.ready_at = mpisim::kSimInf;
  ++rt.phase;
  advance_rank(rank);
}

void Oracle::release_due() {
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r].state == RunState::kAtBarrier &&
        ranks_[r].ready_at <= now_ + kTimeEps) {
      release_queue_.push_back(r);
    }
  }
  if (releasing_) return;  // the outermost call drains
  releasing_ = true;
  for (std::size_t i = 0; i < release_queue_.size(); ++i) {
    const std::size_t r = release_queue_[i];
    if (ranks_[r].state == RunState::kAtBarrier &&
        ranks_[r].ready_at <= now_ + kTimeEps) {
      complete_block(r);
    }
  }
  release_queue_.clear();
  releasing_ = false;
}

void Oracle::arrive_collective(std::size_t rank, SimTime release_cost) {
  OracleRank& rt = ranks_[rank];
  rt.state = RunState::kAtBarrier;
  rt.ready_at = mpisim::kSimInf;
  rt.wait_since = now_;
  set_trace(rank, trace::RankState::kSync);
  if (++barrier_arrived_ < ranks_.size()) return;
  barrier_arrived_ = 0;
  const SimTime release = now_ + release_cost;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r].state == RunState::kAtBarrier) {
      ranks_[r].ready_at = release;
    }
  }
  if (release > now_ + kTimeEps) {
    push(release, EventKind::kBarrierRelease);
    return;
  }
  release_due();
}

void Oracle::advance_rank(std::size_t rank) {
  OracleRank& rt = ranks_[rank];
  const auto& phases = app_.ranks[rank].phases;

  while (true) {
    if (rt.phase >= phases.size()) {
      finish_rank(rank);
      return;
    }
    const mpisim::Phase& phase = phases[rt.phase];

    if (const auto* compute = std::get_if<mpisim::ComputePhase>(&phase)) {
      if (compute->instructions <= 0.0) {
        ++rt.phase;
        continue;
      }
      rt.state = RunState::kComputing;
      rt.remaining = compute->instructions;
      rt.kernel = compute->kernel;
      rt.compute_traced_as = compute->traced_as;
      erase_prediction(rank);
      rt.fresh_compute = true;
      set_trace(rank, compute->traced_as);
      return;
    }
    if (std::holds_alternative<mpisim::BarrierPhase>(phase)) {
      arrive_collective(rank, config_.barrier_latency);
      return;
    }
    if (const auto* reduce = std::get_if<mpisim::AllreducePhase>(&phase)) {
      const double n = static_cast<double>(ranks_.size());
      const double steps = 2.0 * std::ceil(std::log2(std::max(n, 2.0)));
      const SimTime step_cost = network_.arrival_time(0.0, reduce->bytes);
      arrive_collective(rank, config_.barrier_latency + steps * step_cost);
      return;
    }
    if (const auto* send = std::get_if<mpisim::SendPhase>(&phase)) {
      const SimTime arrival = network_.arrival_time(now_, send->bytes);
      messages_[std::tuple{static_cast<std::uint32_t>(rank),
                           send->peer.value(), send->tag}]
          .push_back(arrival);
      push(arrival, EventKind::kMsgArrival, send->peer.value(),
           mpisim::MsgPayload{static_cast<std::uint32_t>(rank),
                              send->peer.value(), send->tag, send->bytes});
      ++rt.phase;
      continue;
    }
    if (const auto* recv = std::get_if<mpisim::RecvPhase>(&phase)) {
      rt.posted.push_back(mpisim::RecvReq{recv->peer.value(), recv->tag});
      ++rt.phase;
      continue;
    }
    if (std::holds_alternative<mpisim::WaitAllPhase>(phase)) {
      SimTime max_arrival = 0.0;
      const bool all = match_all(rank, max_arrival);
      if (all && max_arrival <= now_ + kTimeEps) {
        rt.posted.clear();
        ++rt.epochs;
        epochs_dirty_ = true;
        ++rt.phase;
        continue;
      }
      rt.state = RunState::kAtWaitAll;
      rt.ready_at = all ? std::max(max_arrival, now_) : mpisim::kSimInf;
      rt.wait_since = now_;
      set_trace(rank, trace::RankState::kSync);
      return;
    }
    if (const auto* delay = std::get_if<mpisim::DelayPhase>(&phase)) {
      if (delay->duration <= 0.0) {
        ++rt.phase;
        continue;
      }
      rt.state = RunState::kDelaying;
      rt.delay_until = now_ + delay->duration;
      rt.delay_traced_as = delay->traced_as;
      push(rt.delay_until, EventKind::kDelayDone,
           static_cast<std::uint32_t>(rank));
      set_trace(rank, delay->traced_as);
      return;
    }
    SMTBAL_CHECK_MSG(false, "unhandled phase variant");
  }
}

void Oracle::schedule_next_noise() {
  if (noise_.exhausted()) return;
  const os::NoiseEvent& event = noise_.peek();
  push(event.start, EventKind::kNoisePreempt,
       event.cpu.linear(config_.chip.threads_per_core()));
}

void Oracle::on_noise_preempt() {
  const os::NoiseEvent event = noise_.next();
  schedule_next_noise();
  kernel_.on_interrupt(event.cpu);
  const std::uint32_t lin =
      event.cpu.linear(config_.chip.threads_per_core());
  if (lin >= preempt_until_.size()) return;
  const bool was_preempted = preempt_until_[lin] > now_ + kTimeEps;
  const SimTime merged = std::max(preempt_until_[lin], event.end());
  preempt_until_[lin] = merged;
  // Eager replacement of the pending resume — but only when the engine's
  // lazy scheme would actually retire the old one. The engine pushes a
  // fresh resume at every preempt and stale-checks on pop with an eps
  // tolerance: an old resume within eps of the merged end is NOT stale
  // there and wins (it pops first), so the oracle must keep it too.
  const auto old_resume = std::find_if(
      pending_.begin(), pending_.end(), [&](const Event& e) {
        return e.kind == EventKind::kNoiseResume && e.subject == lin;
      });
  if (old_resume == pending_.end()) {
    push(merged, EventKind::kNoiseResume, lin);
  } else if (merged > old_resume->time + kTimeEps) {
    pending_.erase(old_resume);
    push(merged, EventKind::kNoiseResume, lin);
  }
  const bool is_preempted = preempt_until_[lin] > now_ + kTimeEps;
  const int rank = rank_on_linear_[lin];
  if (rank < 0) return;
  OracleRank& rt = ranks_[static_cast<std::size_t>(rank)];
  if (rt.state == RunState::kDone) return;
  if (!was_preempted && is_preempted && rt.state == RunState::kComputing) {
    accrue(static_cast<std::size_t>(rank));
    erase_prediction(static_cast<std::size_t>(rank));
  }
  set_trace(static_cast<std::size_t>(rank), trace::RankState::kPreempted);
}

void Oracle::on_noise_resume(std::uint32_t lin) {
  preempt_until_[lin] = 0.0;
  const int rank = rank_on_linear_[lin];
  if (rank < 0) return;
  OracleRank& rt = ranks_[static_cast<std::size_t>(rank)];
  if (rt.state != RunState::kDone) {
    switch (rt.state) {
      case RunState::kComputing:
        set_trace(static_cast<std::size_t>(rank), rt.compute_traced_as);
        break;
      case RunState::kDelaying:
        set_trace(static_cast<std::size_t>(rank), rt.delay_traced_as);
        break;
      case RunState::kAtBarrier:
      case RunState::kAtWaitAll:
        set_trace(static_cast<std::size_t>(rank), trace::RankState::kSync);
        break;
      case RunState::kDone:
        break;
    }
  }
  if (rt.state == RunState::kComputing && !rt.has_pred) {
    rt.fresh_compute = true;
  }
}

void Oracle::dispatch(const Event& event) {
  switch (event.kind) {
    case EventKind::kComputeDone: {
      const std::size_t rank = event.subject;
      accrue(rank);
      ranks_[rank].has_pred = false;
      complete_block(rank);
      break;
    }
    case EventKind::kDelayDone: {
      OracleRank& rt = ranks_[event.subject];
      if (rt.state == RunState::kDelaying &&
          rt.delay_until <= now_ + kTimeEps) {
        complete_block(event.subject);
      }
      break;
    }
    case EventKind::kMsgArrival:
      notify_receiver(event.msg.dst);
      break;
    case EventKind::kBarrierRelease:
      release_due();
      break;
    case EventKind::kNoisePreempt:
      on_noise_preempt();
      break;
    case EventKind::kNoiseResume:
      on_noise_resume(event.subject);
      break;
    case EventKind::kPriorityChange:
    case EventKind::kEpochEnd:
      break;  // meta kinds are never queued
  }
}

bool Oracle::check_epochs() {
  epochs_dirty_ = false;
  int min_epochs = std::numeric_limits<int>::max();
  for (const OracleRank& rt : ranks_) {
    min_epochs = std::min(min_epochs, rt.epochs);
  }
  if (min_epochs == std::numeric_limits<int>::max() ||
      min_epochs <= reported_epochs_) {
    return false;
  }
  reported_epochs_ = min_epochs;

  mpisim::EpochReport report;
  report.epoch = reported_epochs_;
  report.now = now_;
  report.ranks.reserve(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    OracleRank& rt = ranks_[r];
    if (rt.state == RunState::kComputing && !preempted(r)) {
      accrue(r);
    } else if (rt.state == RunState::kAtBarrier ||
               rt.state == RunState::kAtWaitAll) {
      rt.acc_wait += now_ - rt.wait_since;
      rt.wait_since = now_;
    }
    report.ranks.push_back(mpisim::RankEpochStats{rt.acc_compute, rt.acc_wait});
    rt.acc_compute = 0.0;
    rt.acc_wait = 0.0;
  }
  emit_meta(EventKind::kEpochEnd, static_cast<std::uint32_t>(report.epoch));
  metrics_.on_epoch(report);
  return true;
}

void Oracle::deadlock() const {
  std::ostringstream os;
  os << "MPI application deadlocked at t=" << now_ << "s; rank states:";
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    os << " P" << (r + 1) << "=" << to_string(ranks_[r].state) << "(phase "
       << ranks_[r].phase << ")";
  }
  throw SimulationError(os.str());
}

OracleResult Oracle::run() {
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r].state != RunState::kDone) advance_rank(r);
  }
  refresh_rates();
  if (epochs_dirty_ && check_epochs()) refresh_rates();
  schedule_next_noise();

  while (!all_done()) {
    if (pending_.empty()) deadlock();
    SMTBAL_CHECK_MSG(++pops_ <= config_.max_events,
                     "oracle exceeded max_events — runaway simulation?");
    SMTBAL_CHECK_MSG(now_ <= config_.max_sim_time,
                     "oracle exceeded max_sim_time");
    const Event event = pop();
    now_ = std::max(now_, event.time);
    ++events_;
    metrics_.on_event(event);
    dispatch(event);
    refresh_rates();
    if (epochs_dirty_ && check_epochs()) refresh_rates();
  }

  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    set_trace(r, trace::RankState::kDone);
  }
  tracer_.finish(now_);

  OracleResult result;
  result.trace = std::move(tracer_);
  result.exec_time = now_;
  result.imbalance = result.trace.imbalance();
  result.events = events_;
  result.priority_resets = kernel_.priority_resets();
  result.metrics = metrics_.take();
  result.loads = std::move(loads_);
  return result;
}

}  // namespace

OracleResult oracle_run(const mpisim::Application& app,
                        const mpisim::Placement& placement,
                        const mpisim::EngineConfig& config,
                        const std::vector<int>& initial_priorities) {
  Oracle oracle(app, placement, config, initial_priorities);
  return oracle.run();
}

}  // namespace smtbal::simcheck
