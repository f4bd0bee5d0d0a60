// Event-kernel tests: EventQueue ordering guarantees, EngineConfig
// validation, observer-bus wiring, MetricsObserver accounting, and the
// noise-preemption-at-barrier-release boundary case.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "mpisim/engine.hpp"
#include "mpisim/event_queue.hpp"
#include "mpisim/metrics.hpp"

namespace smtbal::mpisim {
namespace {

isa::KernelId kid(std::string_view name = isa::kKernelHpcMixed) {
  return isa::KernelRegistry::instance().by_name(name).id;
}

EngineConfig fast_config() {
  EngineConfig config;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  return config;
}

std::shared_ptr<smt::ThroughputSampler> shared_sampler() {
  static auto sampler = std::make_shared<smt::ThroughputSampler>(
      fast_config().chip, fast_config().sampler);
  return sampler;
}

RunResult run(const Application& app, const Placement& placement,
              EngineConfig config = fast_config()) {
  Engine engine(app, placement, config, shared_sampler());
  return engine.run();
}

// ---------------------------------------------------------------------------
// EventQueue

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  queue.push(3.0, EventKind::kComputeDone, 3);
  queue.push(1.0, EventKind::kComputeDone, 1);
  queue.push(2.0, EventKind::kComputeDone, 2);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop().subject, 1u);
  EXPECT_EQ(queue.pop().subject, 2u);
  EXPECT_EQ(queue.pop().subject, 3u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SimultaneousEventsPopInInsertionOrder) {
  // The determinism guarantee: equal-time events pop exactly in push
  // order, regardless of kind or subject.
  EventQueue queue;
  for (std::uint32_t i = 0; i < 100; ++i) {
    queue.push(1.5, static_cast<EventKind>(i % 6), 99 - i);
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    const Event event = queue.pop();
    EXPECT_EQ(event.subject, 99 - i) << "pop " << i;
  }
}

TEST(EventQueue, InterleavedPushesKeepSequenceOrder) {
  EventQueue queue;
  queue.push(1.0, EventKind::kComputeDone, 0);
  queue.push(2.0, EventKind::kComputeDone, 1);
  EXPECT_EQ(queue.pop().subject, 0u);
  queue.push(2.0, EventKind::kComputeDone, 2);  // later seq than subject 1
  EXPECT_EQ(queue.pop().subject, 1u);
  EXPECT_EQ(queue.pop().subject, 2u);
}

TEST(EventQueue, RandomisedHeapKeepsTotalOrder) {
  // Pseudo-random times from a fixed LCG: pops must be non-decreasing in
  // time and FIFO (by seq) within equal times.
  EventQueue queue;
  std::uint64_t lcg = 12345;
  for (int i = 0; i < 1000; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    queue.push(static_cast<double>(lcg >> 60), EventKind::kComputeDone);
  }
  SimTime last_time = -1.0;
  std::uint64_t last_seq = 0;
  bool first = true;
  while (!queue.empty()) {
    const Event event = queue.pop();
    if (!first && event.time == last_time) {
      EXPECT_GT(event.seq, last_seq);
    } else if (!first) {
      EXPECT_GT(event.time, last_time);
    }
    last_time = event.time;
    last_seq = event.seq;
    first = false;
  }
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue queue;
  EXPECT_THROW(queue.pop(), std::logic_error);
}

TEST(EventQueue, ArenaRecyclesSlotsThroughFreeList) {
  // The arena footprint is bounded by the peak queue depth, not by the
  // total number of events pushed: popped slots are reused.
  EventQueue queue;
  for (int i = 0; i < 1000; ++i) {
    queue.push(static_cast<double>(i), EventKind::kComputeDone,
               static_cast<std::uint32_t>(i));
    queue.push(static_cast<double>(i) + 0.5, EventKind::kDelayDone,
               static_cast<std::uint32_t>(i));
    (void)queue.pop();
    (void)queue.pop();
  }
  EXPECT_EQ(queue.pushed(), 2000u);
  EXPECT_LE(queue.arena_slots(), 2u);
}

TEST(EventQueue, ArenaPayloadsSurviveRecyclingProperty) {
  // Property test for the SoA/arena layout: under pseudo-random
  // interleaved pushes and pops, every pop must (a) respect the (time,
  // seq) total order and (b) return exactly the payload pushed with that
  // seq — i.e. handle/body association survives free-list recycling.
  EventQueue queue;
  std::map<std::uint64_t, Event> expected_by_seq;  // seq -> pushed event
  std::map<std::pair<SimTime, std::uint64_t>, std::uint64_t> model;  // -> seq
  std::uint64_t lcg = 2024;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg;
  };
  const auto check_pop = [&] {
    const Event event = queue.pop();
    // (a) Exactly the minimum (time, seq) currently queued in the model.
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(event.time, model.begin()->first.first);
    EXPECT_EQ(event.seq, model.begin()->second);
    model.erase(model.begin());
    const auto it = expected_by_seq.find(event.seq);
    ASSERT_NE(it, expected_by_seq.end());
    EXPECT_EQ(event.time, it->second.time);
    EXPECT_EQ(static_cast<int>(event.kind), static_cast<int>(it->second.kind));
    EXPECT_EQ(event.subject, it->second.subject);
    EXPECT_EQ(event.generation, it->second.generation);
    EXPECT_EQ(event.msg.src, it->second.msg.src);
    EXPECT_EQ(event.msg.dst, it->second.msg.dst);
    EXPECT_EQ(event.msg.tag, it->second.msg.tag);
    expected_by_seq.erase(it);
  };
  for (int step = 0; step < 3000; ++step) {
    if (queue.empty() || next() % 3 != 0) {
      const auto time = static_cast<double>(next() % 64);
      const auto kind = static_cast<EventKind>(next() % kNumEventKinds);
      const auto subject = static_cast<std::uint32_t>(next());
      const std::uint64_t generation = next();
      const MsgPayload msg{static_cast<std::uint32_t>(next()),
                           static_cast<std::uint32_t>(next()),
                           static_cast<int>(next() % 100)};
      const std::uint64_t seq = queue.push(time, kind, subject, generation, msg);
      expected_by_seq.emplace(
          seq, Event{time, seq, kind, subject, generation, msg});
      model.emplace(std::pair{time, seq}, seq);
    } else {
      check_pop();
    }
  }
  while (!queue.empty()) check_pop();
  EXPECT_TRUE(expected_by_seq.empty());
}

// ---------------------------------------------------------------------------
// EngineConfig::validate

TEST(EngineConfigValidate, DefaultConfigIsValid) {
  EXPECT_NO_THROW(EngineConfig{}.validate());
}

TEST(EngineConfigValidate, ZeroBarrierLatencyIsValid) {
  EngineConfig config;
  config.barrier_latency = 0.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(EngineConfigValidate, RejectsBadFields) {
  {
    EngineConfig config;
    config.barrier_latency = -1e-6;
    EXPECT_THROW(config.validate(), InvalidArgument);
  }
  {
    EngineConfig config;
    config.max_sim_time = 0.0;
    EXPECT_THROW(config.validate(), InvalidArgument);
  }
  {
    EngineConfig config;
    config.max_events = 0;
    EXPECT_THROW(config.validate(), InvalidArgument);
  }
  {
    EngineConfig config;
    config.noise_horizon = -1.0;
    EXPECT_THROW(config.validate(), InvalidArgument);
  }
  {
    EngineConfig config;
    config.spin_kernel = "no-such-kernel";
    EXPECT_THROW(config.validate(), InvalidArgument);
  }
}

TEST(EngineConfigValidate, UnknownSpinKernelNamesTheField) {
  EngineConfig config;
  config.spin_kernel = "no-such-kernel";
  try {
    config.validate();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("spin_kernel"),
              std::string::npos);
  }
}

TEST(EngineConfigValidate, BothConstructorsValidate) {
  Application app;
  app.ranks.resize(1);
  app.ranks[0].compute(kid(), 1e6);
  EngineConfig bad = fast_config();
  bad.barrier_latency = -1.0;
  EXPECT_THROW(Engine(app, Placement::identity(1), bad), InvalidArgument);
  EXPECT_THROW(Engine(app, Placement::identity(1), bad, shared_sampler()),
               InvalidArgument);
}

TEST(EngineConfigValidate, RejectsPlacementBeyondChip) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 1e6);
  app.ranks[1].compute(kid(), 1e6);
  // Default chip: 2 cores x 2 threads = contexts 0..3; CPU 7 is off-chip.
  const auto placement = Placement::from_linear({0, 7});
  EXPECT_THROW(Engine(app, placement, fast_config(), shared_sampler()),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// RunResult

TEST(RunResultType, IsMoveOnly) {
  static_assert(std::is_move_constructible_v<RunResult>);
  static_assert(std::is_move_assignable_v<RunResult>);
  static_assert(!std::is_copy_constructible_v<RunResult>);
  static_assert(!std::is_copy_assignable_v<RunResult>);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Observer bus

class CountingObserver final : public SimObserver {
 public:
  void on_start(std::size_t num_ranks) override { start_ranks = num_ranks; }
  void on_event(const Event& event) override {
    if (event.kind == EventKind::kPriorityChange ||
        event.kind == EventKind::kEpochEnd) {
      ++meta_events;
    } else {
      ++events;
    }
    last_event_time = event.time;
  }
  void on_interval(RankId, SimTime, SimTime, trace::RankState) override {
    ++intervals;
  }
  void on_epoch(const EpochReport& report) override { last_epoch = report.epoch; }
  void on_finish(SimTime end_time) override { finish_time = end_time; }

  std::size_t start_ranks = 0;
  std::uint64_t events = 0;
  std::uint64_t meta_events = 0;
  std::uint64_t intervals = 0;
  int last_epoch = 0;
  SimTime last_event_time = 0.0;
  SimTime finish_time = -1.0;
};

TEST(ObserverBus, ExternalObserverSeesTheWholeRun) {
  Application app;
  app.ranks.resize(2);
  for (auto& rank : app.ranks) {
    rank.compute(kid(), 5e7).barrier().compute(kid(), 5e7).barrier();
  }
  CountingObserver counting;
  Engine engine(app, Placement::identity(2), fast_config(), shared_sampler());
  engine.add_observer(&counting);
  const RunResult result = engine.run();

  EXPECT_EQ(counting.start_ranks, 2u);
  EXPECT_EQ(counting.events, result.events);
  EXPECT_EQ(counting.meta_events, 2u);  // one synthesized kEpochEnd per epoch
  EXPECT_GT(counting.intervals, 0u);
  EXPECT_EQ(counting.last_epoch, 2);
  EXPECT_DOUBLE_EQ(counting.finish_time, result.exec_time);
  EXPECT_LE(counting.last_event_time, result.exec_time);
}

TEST(ObserverBus, RejectsNullAndLateObservers) {
  Application app;
  app.ranks.resize(1);
  app.ranks[0].compute(kid(), 1e6);
  Engine engine(app, Placement::identity(1), fast_config(), shared_sampler());
  EXPECT_THROW(engine.add_observer(nullptr), InvalidArgument);
  (void)engine.run();
  CountingObserver counting;
  EXPECT_THROW(engine.add_observer(&counting), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Metrics

std::uint64_t total(const DurationHistogram& histogram) {
  return std::accumulate(histogram.counts.begin(), histogram.counts.end(),
                         std::uint64_t{0});
}

TEST(DurationHistogram, BucketsByDecade) {
  DurationHistogram histogram;
  histogram.add(0.0);    // dropped
  histogram.add(-1.0);   // dropped
  histogram.add(1e-9);   // bucket 0
  histogram.add(5e-10);  // below 1 ns: clamped into bucket 0
  histogram.add(0.5);    // bucket 8
  histogram.add(1e6);    // beyond the top: clamped into bucket 13
  EXPECT_EQ(total(histogram), 4u);
  EXPECT_EQ(histogram.counts[0], 2u);
  EXPECT_EQ(histogram.counts[8], 1u);
  EXPECT_EQ(histogram.counts[DurationHistogram::kBuckets - 1], 1u);
}

TEST(Metrics, BreakdownMatchesTrace) {
  // An imbalanced pair: the light rank's wait must show up in metrics and
  // agree with what the tracer derived.
  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 2e7).barrier();
  app.ranks[1].compute(kid(), 2e8).barrier();
  const RunResult result = run(app, Placement::identity(2));

  ASSERT_EQ(result.metrics.ranks.size(), 2u);
  const RankMetrics& light = result.metrics.ranks[0];
  const trace::RankStats stats = result.trace.stats(RankId{0});
  EXPECT_NEAR(light.compute, stats.per_state[static_cast<int>(
                                 trace::RankState::kCompute)], 1e-9);
  EXPECT_NEAR(light.wait, stats.per_state[static_cast<int>(
                              trace::RankState::kSync)], 1e-9);
  EXPECT_GT(light.wait, 0.0);
  EXPECT_GE(light.spin, light.wait);  // spin covers sync + init + stat
  EXPECT_EQ(light.priority_changes, 0u);
  EXPECT_GT(total(light.compute_intervals), 0u);
  EXPECT_GT(total(light.wait_intervals), 0u);
  EXPECT_EQ(result.metrics.epochs, 1);
}

TEST(Metrics, EventsByKindAccountsForEveryProcessedEvent) {
  Application app;
  app.ranks.resize(2);
  for (auto& rank : app.ranks) {
    rank.compute(kid(), 5e7).barrier().compute(kid(), 5e7).barrier();
  }
  const RunResult result = run(app, Placement::identity(2));

  std::uint64_t total = 0;
  for (const std::uint64_t count : result.metrics.events_by_kind) {
    total += count;
  }
  const auto kind = [&](EventKind k) {
    return result.metrics.events_by_kind[static_cast<std::size_t>(k)];
  };
  // Meta kinds (priority-change, epoch-end) are synthesized on top of the
  // processed heap events counted in result.events.
  EXPECT_EQ(total, result.events + kind(EventKind::kPriorityChange) +
                       kind(EventKind::kEpochEnd));
  EXPECT_EQ(kind(EventKind::kComputeDone), 4u);  // 2 ranks x 2 phases
  EXPECT_EQ(kind(EventKind::kEpochEnd), 2u);     // 2 global barriers
  EXPECT_EQ(kind(EventKind::kNoisePreempt), 0u);
}

TEST(Metrics, PolicyPriorityWritesAreCounted) {
  class Raiser final : public BalancePolicy {
   public:
    [[nodiscard]] std::string_view name() const override { return "raiser"; }
    void on_start(EngineControl& control) override {
      control.set_rank_priority(RankId{0}, 6);
      control.set_rank_priority(RankId{0}, 6);  // same level: not a change
    }
  } raiser;

  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 2e7).barrier();
  app.ranks[1].compute(kid(), 2e8).barrier();
  Engine engine(app, Placement::identity(2), fast_config(), shared_sampler());
  engine.set_policy(&raiser);
  const RunResult result = engine.run();

  EXPECT_EQ(result.metrics.ranks[0].priority_changes, 1u);
  EXPECT_EQ(result.metrics.ranks[1].priority_changes, 0u);
  EXPECT_EQ(result.metrics.events_by_kind[static_cast<std::size_t>(
                EventKind::kPriorityChange)], 0u);  // before run: no sim yet
}

// ---------------------------------------------------------------------------
// Noise exactly at a barrier-release boundary

TEST(NoiseBoundary, TickAtZeroCostReleaseInstant) {
  // Both ranks' delays end at t = 0.001 s — exactly when CPU0's second
  // timer tick fires (tick_hz = 1000, CPU0's ticks start at t = 0). The
  // (time, seq) tie-break processes the delay completions and the
  // zero-cost barrier release before the preemption, so the release is
  // never lost; the tick then preempts rank 0's next delay phase.
  EngineConfig config = fast_config();
  config.barrier_latency = 0.0;
  config.noise.tick_hz = 1000.0;
  config.noise.tick_duration = 2e-6;
  config.noise.cpu0_irq_hz = 0.0;
  config.noise.daemon_hz = 0.0;
  config.noise_horizon = 0.01;

  Application app;
  app.ranks.resize(2);
  for (auto& rank : app.ranks) {
    rank.delay(0.001).barrier().delay(0.001);
  }

  const RunResult first = run(app, Placement::identity(2), config);
  EXPECT_NEAR(first.exec_time, 0.002, 1e-12);

  // Rank 0 must show the boundary tick as a preemption starting exactly
  // at the release instant.
  bool preempted_at_boundary = false;
  for (const trace::Interval& interval : first.trace.timeline(RankId{0})) {
    if (interval.state == trace::RankState::kPreempted &&
        interval.begin == 0.001) {
      EXPECT_NEAR(interval.duration(), 2e-6, 1e-12);
      preempted_at_boundary = true;
    }
  }
  EXPECT_TRUE(preempted_at_boundary);

  const RunResult second = run(app, Placement::identity(2), config);
  EXPECT_EQ(first.exec_time, second.exec_time);
  EXPECT_EQ(first.events, second.events);
}

TEST(NoiseBoundary, TickAtScheduledReleaseInstant) {
  // A costed release landing exactly on a tick: ranks arrive at t =
  // 0.0005 s, the release is scheduled 0.0005 s later — bit-exactly
  // 0.001 s, the tick time (doubling a double is exact). The tick's
  // preemption and the release coincide; the run must still complete,
  // deterministically, at the release time.
  EngineConfig config = fast_config();
  config.barrier_latency = 0.0005;
  config.noise.tick_hz = 1000.0;
  config.noise.tick_duration = 2e-6;
  config.noise.cpu0_irq_hz = 0.0;
  config.noise.daemon_hz = 0.0;
  config.noise_horizon = 0.01;

  Application app;
  app.ranks.resize(2);
  for (auto& rank : app.ranks) {
    rank.delay(0.0005).barrier();
  }

  const RunResult first = run(app, Placement::identity(2), config);
  EXPECT_NEAR(first.exec_time, 0.001, 1e-12);

  // The whole release window shows as sync on both ranks.
  for (std::uint32_t r = 0; r < 2; ++r) {
    bool found_sync = false;
    for (const trace::Interval& interval :
         first.trace.timeline(RankId{r})) {
      if (interval.state == trace::RankState::kSync) {
        EXPECT_NEAR(interval.begin, 0.0005, 1e-12);
        EXPECT_NEAR(interval.end, 0.001, 1e-12);
        found_sync = true;
      }
    }
    EXPECT_TRUE(found_sync) << "rank " << r;
  }

  const RunResult second = run(app, Placement::identity(2), config);
  EXPECT_EQ(first.exec_time, second.exec_time);
  EXPECT_EQ(first.events, second.events);
}

}  // namespace
}  // namespace smtbal::mpisim
