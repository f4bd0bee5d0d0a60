#include "mpisim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/error.hpp"
#include "isa/kernel.hpp"

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

/// One sampler shared by every engine test: all tests use the same chip
/// model, so cycle-level measurements are reused across tests.
std::shared_ptr<smt::ThroughputSampler> shared_sampler() {
  static auto sampler = std::make_shared<smt::ThroughputSampler>(
      fast_config().chip, fast_config().sampler);
  return sampler;
}

RunResult run(const Application& app, const Placement& placement,
              EngineConfig config = fast_config(),
              BalancePolicy* policy = nullptr) {
  Engine engine(app, placement, config, shared_sampler());
  if (policy != nullptr) engine.set_policy(policy);
  return engine.run();
}

/// Simple static policy for tests (avoids depending on smtbal_core here).
class TestPolicy final : public BalancePolicy {
 public:
  explicit TestPolicy(std::vector<int> priorities)
      : priorities_(std::move(priorities)) {}
  [[nodiscard]] std::string_view name() const override { return "test"; }
  void on_start(EngineControl& control) override {
    for (std::size_t r = 0; r < priorities_.size(); ++r) {
      control.set_rank_priority(RankId{static_cast<std::uint32_t>(r)},
                                priorities_[r]);
    }
  }
  std::vector<int> priorities_;
};

TEST(Engine, SingleRankComputesAndFinishes) {
  Application app;
  app.name = "solo";
  app.ranks.resize(1);
  app.ranks[0].compute(kid(), 1e8);
  const RunResult result = run(app, Placement::identity(1));
  EXPECT_GT(result.exec_time, 0.0);
  EXPECT_LT(result.exec_time, 1.0);
  EXPECT_DOUBLE_EQ(result.trace.stats(RankId{0}).comp_fraction(), 1.0);
  EXPECT_EQ(result.imbalance, 0.0);
}

TEST(Engine, ExecTimeScalesWithWork) {
  Application small, big;
  small.ranks.resize(1);
  big.ranks.resize(1);
  small.ranks[0].compute(kid(), 1e8);
  big.ranks[0].compute(kid(), 4e8);
  const double t1 = run(small, Placement::identity(1)).exec_time;
  const double t4 = run(big, Placement::identity(1)).exec_time;
  EXPECT_NEAR(t4 / t1, 4.0, 0.1);
}

TEST(Engine, BarrierSynchronisesRanks) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 1e8).barrier().compute(kid(), 1e8);
  app.ranks[1].compute(kid(), 4e8).barrier().compute(kid(), 1e8);
  const RunResult result = run(app, Placement::from_linear({0, 2}));
  // Rank 0 must have waited at the barrier for rank 1.
  EXPECT_GT(result.trace.stats(RankId{0}).sync_fraction(), 0.3);
  EXPECT_LT(result.trace.stats(RankId{1}).sync_fraction(), 0.05);
}

TEST(Engine, DelayPhaseTakesWallClockTime) {
  Application app;
  app.ranks.resize(1);
  app.ranks[0].delay(0.25, trace::RankState::kStat);
  const RunResult result = run(app, Placement::identity(1));
  EXPECT_NEAR(result.exec_time, 0.25, 1e-9);
  EXPECT_NEAR(result.trace.stats(RankId{0}).fraction(trace::RankState::kStat),
              1.0, 1e-9);
}

TEST(Engine, SendRecvWaitAllRoundTrip) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 2e8).send(RankId{1}, 1024);
  app.ranks[1].recv(RankId{0}, 1024).wait_all().compute(kid(), 1e7);
  const RunResult result = run(app, Placement::from_linear({0, 2}));
  // Rank 1 waits for rank 0's compute before its own work.
  EXPECT_GT(result.trace.stats(RankId{1}).sync_fraction(), 0.5);
}

TEST(Engine, MessageLatencyDelaysReceiver) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].send(RankId{1}, 1024);
  app.ranks[1].recv(RankId{0}, 1024).wait_all();
  EngineConfig slow_net = fast_config();
  slow_net.network.base_latency = 0.125;
  const RunResult result =
      run(app, Placement::from_linear({0, 2}), slow_net);
  EXPECT_GE(result.exec_time, 0.125);
}

TEST(Engine, EagerMessagesDontBlockSender) {
  // Sender isends long before the receiver posts: nonblocking semantics.
  Application app;
  app.ranks.resize(2);
  app.ranks[0].send(RankId{1}, 64).compute(kid(), 1e8);
  app.ranks[1].compute(kid(), 2e8).recv(RankId{0}, 64).wait_all();
  const RunResult result = run(app, Placement::from_linear({0, 2}));
  // Receiver's waitall completes immediately (message long arrived).
  EXPECT_LT(result.trace.stats(RankId{1}).sync_fraction(), 0.01);
}

TEST(Engine, DeadlockIsDetected) {
  // Both ranks waitall for a message the peer only sends afterwards.
  Application app;
  app.ranks.resize(2);
  app.ranks[0].recv(RankId{1}, 8).wait_all().send(RankId{1}, 8);
  app.ranks[1].recv(RankId{0}, 8).wait_all().send(RankId{0}, 8);
  EXPECT_NO_THROW(app.validate());  // structurally balanced...
  EXPECT_THROW(run(app, Placement::from_linear({0, 2})), SimulationError);
}

TEST(Engine, RunIsSingleUse) {
  Application app;
  app.ranks.resize(1);
  app.ranks[0].compute(kid(), 1e6);
  Engine engine(app, Placement::identity(1), fast_config(), shared_sampler());
  (void)engine.run();
  EXPECT_THROW(engine.run(), InvalidArgument);
}

TEST(Engine, RejectsMismatchedPlacement) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 1);
  app.ranks[1].compute(kid(), 1);
  EXPECT_THROW(Engine(app, Placement::identity(3), fast_config(),
                      shared_sampler()),
               InvalidArgument);
}

TEST(Engine, RejectsTwoRanksOnOneCpu) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 1e6);
  app.ranks[1].compute(kid(), 1e6);
  EXPECT_THROW(
      {
        Engine engine(app, Placement::from_linear({1, 1}), fast_config(),
                      shared_sampler());
        (void)engine.run();
      },
      InvalidArgument);
}

TEST(Engine, TraceCoversWholeRun) {
  Application app;
  app.ranks.resize(2);
  for (auto& rank : app.ranks) {
    rank.compute(kid(), 1e8).barrier().delay(0.01).barrier();
  }
  const RunResult result = run(app, Placement::from_linear({0, 2}));
  for (std::uint32_t r = 0; r < 2; ++r) {
    const auto& timeline = result.trace.timeline(RankId{r});
    ASSERT_FALSE(timeline.empty());
    EXPECT_NEAR(timeline.front().begin, 0.0, 1e-12);
    EXPECT_NEAR(timeline.back().end, result.exec_time, 1e-6);
    for (std::size_t i = 1; i < timeline.size(); ++i) {
      EXPECT_GE(timeline[i].begin, timeline[i - 1].end - 1e-12);
    }
  }
}

TEST(Engine, SpinningNeighbourSlowsComputingRank) {
  // The paper's core premise: a busy-waiting rank consumes decode slots.
  Application together;
  together.ranks.resize(2);
  together.ranks[0].compute(kid(), 1e9).barrier();
  together.ranks[1].compute(kid(), 1e7).barrier();  // finishes fast, spins

  Application separate = together;
  const double same_core =
      run(together, Placement::from_linear({0, 1})).exec_time;
  const double different_cores =
      run(separate, Placement::from_linear({0, 2})).exec_time;
  EXPECT_GT(same_core, different_cores * 1.1);
}

TEST(Engine, PolicyPrioritySpeedsUpBottleneck) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 1e9).barrier();
  app.ranks[1].compute(kid(), 2e8).barrier();
  const Placement placement = Placement::from_linear({0, 1});

  const double baseline = run(app, placement).exec_time;
  TestPolicy favor_bottleneck({6, 4});
  const double balanced =
      run(app, placement, fast_config(), &favor_bottleneck).exec_time;
  EXPECT_LT(balanced, baseline * 0.95);

  TestPolicy favor_wrong({4, 6});
  const double inverted =
      run(app, placement, fast_config(), &favor_wrong).exec_time;
  EXPECT_GT(inverted, baseline * 1.2);
}

TEST(Engine, VanillaKernelRejectsSupervisorPriorities) {
  Application app;
  app.ranks.resize(1);
  app.ranks[0].compute(kid(), 1e6);
  EngineConfig config = fast_config();
  config.kernel_flavor = os::KernelFlavor::kVanilla;
  TestPolicy policy({6});
  Engine engine(app, Placement::identity(1), config, shared_sampler());
  engine.set_policy(&policy);
  EXPECT_THROW(engine.run(), InvalidArgument);
}

TEST(Engine, VanillaKernelAcceptsUserPriorities) {
  Application app;
  app.ranks.resize(1);
  app.ranks[0].compute(kid(), 1e7);
  EngineConfig config = fast_config();
  config.kernel_flavor = os::KernelFlavor::kVanilla;
  TestPolicy policy({3});
  Engine engine(app, Placement::identity(1), config, shared_sampler());
  engine.set_policy(&policy);
  EXPECT_NO_THROW(engine.run());
}

class EpochRecorder final : public BalancePolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "recorder"; }
  void on_epoch(EngineControl&, const EpochReport& report) override {
    reports.push_back(report);
  }
  std::vector<EpochReport> reports;
};

TEST(Engine, EpochReportsPerBarrier) {
  Application app;
  app.ranks.resize(2);
  for (auto& rank : app.ranks) {
    for (int i = 0; i < 3; ++i) rank.compute(kid(), 1e8).barrier();
  }
  EpochRecorder recorder;
  Engine engine(app, Placement::from_linear({0, 2}), fast_config(),
                shared_sampler());
  engine.set_policy(&recorder);
  (void)engine.run();
  ASSERT_EQ(recorder.reports.size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(recorder.reports[e].epoch, static_cast<int>(e) + 1);
    ASSERT_EQ(recorder.reports[e].ranks.size(), 2u);
    EXPECT_GT(recorder.reports[e].ranks[0].compute, 0.0);
  }
  // Epoch times are increasing.
  EXPECT_LT(recorder.reports[0].now, recorder.reports[1].now);
}

TEST(Engine, EpochStatsSeparateComputeFromWait) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 4e8).barrier();
  app.ranks[1].compute(kid(), 1e8).barrier();
  EpochRecorder recorder;
  Engine engine(app, Placement::from_linear({0, 2}), fast_config(),
                shared_sampler());
  engine.set_policy(&recorder);
  (void)engine.run();
  ASSERT_EQ(recorder.reports.size(), 1u);
  const EpochReport& report = recorder.reports[0];
  EXPECT_GT(report.ranks[0].compute, report.ranks[1].compute * 2);
  EXPECT_GT(report.ranks[1].wait, report.ranks[0].wait);
}

TEST(Engine, NoiseExtendsExecutionAndResetsPriorities) {
  Application app;
  app.ranks.resize(1);
  app.ranks[0].compute(kid(), 5e8);

  EngineConfig quiet = fast_config();
  const double baseline = run(app, Placement::identity(1), quiet).exec_time;

  EngineConfig noisy = fast_config();
  noisy.kernel_flavor = os::KernelFlavor::kVanilla;
  noisy.noise = os::NoiseConfig{};  // defaults: ticks + cpu0 irqs + daemons
  noisy.noise.daemon_hz = 20.0;     // make preemption visible
  noisy.noise.daemon_duration = 5e-3;
  noisy.noise_horizon = 10.0;
  const RunResult noisy_result = run(app, Placement::identity(1), noisy);
  EXPECT_GT(noisy_result.exec_time, baseline * 1.02);
}

TEST(Engine, BackToBackZeroCostBarriersComplete) {
  // Regression: a zero-cost collective releases its ranks inside
  // arrive_collective; the released rank can immediately arrive at the
  // *next* barrier, re-entering arrive_collective and mutating
  // barrier_arrived_ while the release loop iterated. With thousands of
  // consecutive zero-cost barriers the old code also recursed once per
  // barrier (unbounded stack depth). The release queue must make this
  // iterative and keep every epoch intact.
  constexpr int kBarriers = 2000;
  Application app;
  app.ranks.resize(2);
  for (auto& rank : app.ranks) {
    rank.compute(kid(), 1e6);
    for (int i = 0; i < kBarriers; ++i) rank.barrier();
  }
  EngineConfig config = fast_config();
  config.barrier_latency = 0.0;
  config.max_events = 100'000'000;
  EpochRecorder recorder;
  Engine engine(app, Placement::from_linear({0, 2}), config, shared_sampler());
  engine.set_policy(&recorder);
  const RunResult result = engine.run();
  EXPECT_GT(result.exec_time, 0.0);
  // All zero-cost epochs collapse into one event, so check_epochs emits a
  // single report — but it must account for every one of the barriers.
  ASSERT_FALSE(recorder.reports.empty());
  EXPECT_EQ(recorder.reports.back().epoch, kBarriers);
}

TEST(Engine, SetRankPriorityBeforeSpawnReportsNotSpawned) {
  Application app;
  app.ranks.resize(1);
  app.ranks[0].compute(kid(), 1e6);
  Engine engine(app, Placement::identity(1), fast_config(), shared_sampler());
  try {
    engine.set_rank_priority(RankId{0}, 5);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("not spawned"), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(Engine, SetRankPriorityRejectsOutOfRangeRank) {
  // Once processes exist, an out-of-range rank must be reported as such —
  // not with the "not spawned yet" message the old guard produced.
  class OutOfRangePolicy final : public BalancePolicy {
   public:
    [[nodiscard]] std::string_view name() const override { return "oor"; }
    void on_start(EngineControl& control) override {
      try {
        control.set_rank_priority(RankId{7}, 5);
      } catch (const InvalidArgument& e) {
        message = e.what();
      }
    }
    std::string message;
  };
  Application app;
  app.ranks.resize(1);
  app.ranks[0].compute(kid(), 1e6);
  OutOfRangePolicy policy;
  Engine engine(app, Placement::identity(1), fast_config(), shared_sampler());
  engine.set_policy(&policy);
  (void)engine.run();
  EXPECT_NE(policy.message.find("rank out of range"), std::string::npos)
      << "got: " << policy.message;
}

TEST(Engine, RanksWithUnequalPhaseCountsFinishIndependently) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 1e8);
  app.ranks[1].compute(kid(), 1e8).compute(kid(), 1e8).compute(kid(), 1e8);
  const RunResult result = run(app, Placement::from_linear({0, 2}));
  EXPECT_GT(result.exec_time, 0.0);
  // Rank 0's timeline ends before the app does (it exits early).
  EXPECT_LT(result.trace.timeline(RankId{0}).back().end,
            result.exec_time * 0.75);
}

TEST(Engine, SamplerStatsCountOnlyTheRunsOwnLookups) {
  // Two runs on one shared sampler: the second run's counters must not
  // include the first run's lookups and measurements.
  EngineConfig config = fast_config();
  config.sampler = {.warmup_cycles = 500, .window_cycles = 2000, .seed = 1};
  const auto sampler =
      std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);
  const auto run_on = [&](std::string_view kernel) {
    Application app;
    app.ranks.resize(2);
    app.ranks[0].compute(kid(kernel), 1e7);
    app.ranks[1].compute(kid(kernel), 2e7);
    Engine engine(app, Placement::from_linear({0, 1}), config, sampler);
    return engine.run();
  };

  const RunResult first = run_on(isa::kKernelHpcMixed);
  const smt::SamplerStats after_first = sampler->stats();
  EXPECT_EQ(first.sampler_stats.lookups, after_first.lookups);
  EXPECT_EQ(first.sampler_stats.misses, after_first.misses);
  ASSERT_GT(first.sampler_stats.misses, 0u);

  const RunResult second = run_on(isa::kKernelMemStress);
  const smt::SamplerStats& after_second = sampler->stats();
  ASSERT_GT(after_second.misses, after_first.misses);
  EXPECT_EQ(second.sampler_stats.lookups,
            after_second.lookups - after_first.lookups);
  EXPECT_EQ(second.sampler_stats.misses,
            after_second.misses - after_first.misses);
  EXPECT_EQ(second.sampler_stats.local_hits,
            after_second.local_hits - after_first.local_hits);
}

}  // namespace
}  // namespace smtbal::mpisim
