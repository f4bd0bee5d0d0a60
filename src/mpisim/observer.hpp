// Observer bus of the event kernel.
//
// The simulation core publishes everything that happens — processed
// events, completed trace intervals, priority rewrites, epoch boundaries —
// to a list of SimObserver instances. Tracing (TraceObserver), metrics
// collection (MetricsObserver in metrics.hpp) and balance-policy dispatch
// (PolicyObserver) all attach through this one seam, so new consumers
// plug in without touching the simulation core.
#pragma once

#include <utility>
#include <vector>

#include "common/types.hpp"
#include "mpisim/event.hpp"
#include "mpisim/hooks.hpp"
#include "trace/tracer.hpp"

namespace smtbal::mpisim {

class AuditSource;

class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// The simulation core offers its audit window (audit.hpp) when the
  /// event loop starts, before any event notification. `audit` stays
  /// valid until on_finish; observers that do not check invariants
  /// ignore it.
  virtual void on_bind(const AuditSource* audit) { (void)audit; }

  /// The run is about to start (processes spawned, time 0).
  virtual void on_start(std::size_t num_ranks) { (void)num_ranks; }

  /// An event was processed (heap-scheduled kinds) or synthesized
  /// (kPriorityChange, kEpochEnd) at `event.time`.
  virtual void on_event(const Event& event) { (void)event; }

  /// A rank spent [begin, end) in `state` (emitted when the shown state
  /// changes, so consecutive same-state intervals arrive merged).
  virtual void on_interval(RankId rank, SimTime begin, SimTime end,
                           trace::RankState state) {
    (void)rank, (void)begin, (void)end, (void)state;
  }

  /// A rank's effective hardware priority level changed (from != to).
  virtual void on_priority_change(RankId rank, int from, int to, SimTime now) {
    (void)rank, (void)from, (void)to, (void)now;
  }

  /// A rank was remapped to another (core, slot) seat (from != to).
  virtual void on_placement_change(RankId rank, CpuId from, CpuId to,
                                   SimTime now) {
    (void)rank, (void)from, (void)to, (void)now;
  }

  /// A rank was migrated to a seat on another node (cluster runs only;
  /// from_node != to_node — same-node moves arrive as placement changes).
  virtual void on_rank_migration(RankId rank, std::uint32_t from_node,
                                 std::uint32_t to_node, SimTime now) {
    (void)rank, (void)from_node, (void)to_node, (void)now;
  }

  /// All ranks completed one more global synchronisation epoch.
  virtual void on_epoch(const EpochReport& report) { (void)report; }

  /// The run finished (all ranks done) at `end_time`.
  virtual void on_finish(SimTime end_time) { (void)end_time; }
};

/// Fan-out of simulation notifications to the attached observers, in
/// attach order. Non-owning; observers must outlive the run.
class ObserverBus {
 public:
  void attach(SimObserver* observer) { observers_.push_back(observer); }

  void notify_bind(const AuditSource* audit) {
    for (SimObserver* o : observers_) o->on_bind(audit);
  }
  void notify_start(std::size_t num_ranks) {
    for (SimObserver* o : observers_) o->on_start(num_ranks);
  }
  void notify_event(const Event& event) {
    for (SimObserver* o : observers_) o->on_event(event);
  }
  void notify_interval(RankId rank, SimTime begin, SimTime end,
                       trace::RankState state) {
    for (SimObserver* o : observers_) o->on_interval(rank, begin, end, state);
  }
  void notify_priority_change(RankId rank, int from, int to, SimTime now) {
    for (SimObserver* o : observers_) o->on_priority_change(rank, from, to, now);
  }
  void notify_placement_change(RankId rank, CpuId from, CpuId to, SimTime now) {
    for (SimObserver* o : observers_) {
      o->on_placement_change(rank, from, to, now);
    }
  }
  void notify_rank_migration(RankId rank, std::uint32_t from_node,
                             std::uint32_t to_node, SimTime now) {
    for (SimObserver* o : observers_) {
      o->on_rank_migration(rank, from_node, to_node, now);
    }
  }
  void notify_epoch(const EpochReport& report) {
    for (SimObserver* o : observers_) o->on_epoch(report);
  }
  void notify_finish(SimTime end_time) {
    for (SimObserver* o : observers_) o->on_finish(end_time);
  }

 private:
  std::vector<SimObserver*> observers_;
};

/// Adapts trace::Tracer to the bus: records every interval and closes the
/// trace at on_finish. The engine moves the finished tracer into the
/// RunResult via take().
class TraceObserver final : public SimObserver {
 public:
  explicit TraceObserver(std::size_t num_ranks) : tracer_(num_ranks) {}

  void on_interval(RankId rank, SimTime begin, SimTime end,
                   trace::RankState state) override {
    tracer_.record(rank, begin, end, state);
  }
  void on_finish(SimTime end_time) override { tracer_.finish(end_time); }

  [[nodiscard]] trace::Tracer take() { return std::move(tracer_); }

 private:
  trace::Tracer tracer_;
};

/// Adapts a BalancePolicy to the bus: epoch reports are forwarded to
/// on_epoch with the engine's control surface, replacing the bespoke
/// policy plumbing the simulation core used to carry.
class PolicyObserver final : public SimObserver {
 public:
  PolicyObserver(BalancePolicy* policy, EngineControl& control)
      : policy_(policy), control_(control) {}

  void on_epoch(const EpochReport& report) override {
    if (policy_ != nullptr) policy_->on_epoch(control_, report);
  }

 private:
  BalancePolicy* policy_;
  EngineControl& control_;
};

}  // namespace smtbal::mpisim
