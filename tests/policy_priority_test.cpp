// The paper's priority policies — the static assignment and the dynamic
// wait-gap controller — and the offline advisor that searches static
// assignments by simulation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "mpisim/engine.hpp"
#include "policy/advisor.hpp"
#include "policy/dynamic.hpp"
#include "policy/static_priority.hpp"

namespace smtbal::policy {
namespace {

isa::KernelId kid() {
  return isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;
}

mpisim::EngineConfig fast_config() {
  mpisim::EngineConfig config;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  return config;
}

/// One engine run on a sampler shared by every run of the suite, so each
/// chip load is cycle-simulated once.
mpisim::RunResult run(const mpisim::Application& app,
                      const mpisim::Placement& placement,
                      mpisim::BalancePolicy* policy = nullptr) {
  static const auto sampler = std::make_shared<smt::ThroughputSampler>(
      fast_config().chip, fast_config().sampler);
  mpisim::Engine engine(app, placement, fast_config(), sampler);
  engine.set_policy(policy);
  return engine.run();
}

/// Two ranks on one core, rank 0 does 4x the work — a statically
/// imbalanced app the policies should fix.
mpisim::Application imbalanced_pair(int iterations = 6, double ratio = 4.0) {
  mpisim::Application app;
  app.ranks.resize(2);
  for (int i = 0; i < iterations; ++i) {
    app.ranks[0].compute(kid(), 2e8 * ratio).barrier();
    app.ranks[1].compute(kid(), 2e8).barrier();
  }
  return app;
}

const mpisim::Placement kPair = mpisim::Placement::from_linear({0, 1});

TEST(StaticPolicy, RejectsBadPriorities) {
  EXPECT_THROW(StaticPriorityPolicy({}), InvalidArgument);
  EXPECT_THROW(StaticPriorityPolicy({0}), InvalidArgument);
  EXPECT_THROW(StaticPriorityPolicy({7}), InvalidArgument);
}

TEST(StaticPolicy, RejectsSizeMismatchAtRun) {
  StaticPriorityPolicy policy({4, 4, 4});
  EXPECT_THROW(run(imbalanced_pair(1), kPair, &policy),
               InvalidArgument);
}

TEST(StaticPolicy, AppliesPrioritiesAndImprovesImbalancedApp) {
  const auto baseline = run(imbalanced_pair(), kPair);
  // One level of difference is the sweet spot for a 4:1 load ratio: the
  // favored thread saturates quickly, so wider gaps only starve the
  // light rank for no further gain (paper Case D).
  StaticPriorityPolicy policy({5, 4});
  const auto balanced =
      run(imbalanced_pair(), kPair, &policy);
  EXPECT_LT(balanced.exec_time, baseline.exec_time * 0.92);
  EXPECT_LT(balanced.imbalance, baseline.imbalance);
}

TEST(StaticPolicy, WrongDirectionHurts) {
  const auto baseline = run(imbalanced_pair(), kPair);
  StaticPriorityPolicy policy({4, 6});  // favors the light rank
  const auto inverted =
      run(imbalanced_pair(), kPair, &policy);
  EXPECT_GT(inverted.exec_time, baseline.exec_time * 1.1);
}

TEST(DynamicBalancer, ConfigValidation) {
  DynamicBalancerConfig config;
  config.max_diff = 0;
  EXPECT_THROW(DynamicBalancer{config}, InvalidArgument);
  config = DynamicBalancerConfig{};
  config.high_priority = 7;
  EXPECT_THROW(DynamicBalancer{config}, InvalidArgument);
  config = DynamicBalancerConfig{};
  config.wait_gap_threshold = 0.0;
  EXPECT_THROW(DynamicBalancer{config}, InvalidArgument);
  config = DynamicBalancerConfig{};
  config.smoothing = 0.0;
  EXPECT_THROW(DynamicBalancer{config}, InvalidArgument);
}

TEST(DynamicBalancer, ImprovesStaticallyImbalancedApp) {
  const auto baseline =
      run(imbalanced_pair(10, 5.0), kPair);
  DynamicBalancerConfig config;
  config.max_diff = 2;
  DynamicBalancer policy(config);
  const auto balanced =
      run(imbalanced_pair(10, 5.0), kPair, &policy);
  EXPECT_LT(balanced.exec_time, baseline.exec_time * 0.95);
  EXPECT_GT(policy.adjustments(), 0u);
}

TEST(DynamicBalancer, LeavesBalancedAppAlone) {
  mpisim::Application app;
  app.ranks.resize(2);
  for (int i = 0; i < 6; ++i) {
    app.ranks[0].compute(kid(), 4e8).barrier();
    app.ranks[1].compute(kid(), 4e8).barrier();
  }
  DynamicBalancer policy;
  const auto result = run(app, kPair, &policy);
  EXPECT_EQ(policy.adjustments(), 0u);
  EXPECT_LT(result.imbalance, 0.1);
}

TEST(DynamicBalancer, ConvergesInsteadOfFlapping) {
  DynamicBalancer policy;
  (void)run(imbalanced_pair(12), kPair, &policy);
  // A convergent controller changes priorities a bounded number of times,
  // not once per epoch.
  EXPECT_LE(policy.adjustments(), 8u);
}

TEST(DynamicBalancer, RespectsMaxDiff) {
  // With max_diff 1 the starved rank may never drop below high-1.
  class PriorityProbe final : public mpisim::BalancePolicy {
   public:
    explicit PriorityProbe(DynamicBalancer& inner) : inner_(inner) {}
    [[nodiscard]] std::string_view name() const override { return "probe"; }
    void on_start(mpisim::EngineControl& control) override {
      inner_.on_start(control);
    }
    void on_epoch(mpisim::EngineControl& control,
                  const mpisim::EpochReport& report) override {
      inner_.on_epoch(control, report);
      const int p1 = control.rank_priority(RankId{1});
      const int p0 = control.rank_priority(RankId{0});
      // Priority 0 means the rank's process already exited (ST mode).
      if (p1 > 0 && p0 > 0) {
        min_seen = std::min(min_seen, p1);
        max_seen = std::max(max_seen, p0);
        max_gap = std::max(max_gap, p0 - p1);
      }
    }
    DynamicBalancer& inner_;
    int min_seen = 6;
    int max_seen = 1;
    int max_gap = 0;
  };

  DynamicBalancerConfig config;
  config.max_diff = 1;
  DynamicBalancer inner(config);
  PriorityProbe probe(inner);
  (void)run(imbalanced_pair(10, 5.0), kPair, &probe);
  // Priorities are either the default (4,4) or a single-step gap (6,5):
  // the starved rank never drops below high_priority - max_diff.
  EXPECT_GE(probe.min_seen, 4);
  EXPECT_LE(probe.max_seen, 6);
  EXPECT_LE(probe.max_gap, 1);
  EXPECT_GE(probe.max_gap, 1) << "a gap must actually have been applied";
}

TEST(Advisor, FindsTheObviousAssignment) {
  // A 4:1 load ratio is best served by one level of difference (the
  // favored thread saturates; see the paper's Case D for wider gaps).
  const auto results =
      advise(imbalanced_pair(3), {}, {4, 5}, runner::BatchRunner({.jobs = 1}),
             fast_config())
          .ranked;
  ASSERT_EQ(results.size(), 4u);
  // Best configuration favors the heavy rank 0.
  EXPECT_EQ(results.front().priorities[0], 5);
  EXPECT_EQ(results.front().priorities[1], 4);
  // Results are sorted by execution time.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].exec_time, results[i - 1].exec_time);
  }
  // Worst is the inverted assignment.
  EXPECT_EQ(results.back().priorities[0], 4);
  EXPECT_EQ(results.back().priorities[1], 5);
}

TEST(Advisor, SearchSpaceGuard) {
  // 6^5 = 7776 priority vectors exceed the cap; nothing runs.
  mpisim::Application app;
  app.ranks.resize(5);
  for (auto& rank : app.ranks) rank.compute(kid(), 1e6);
  EXPECT_THROW((void)advise(app, {}, {1, 2, 3, 4, 5, 6}, runner::BatchRunner{},
                            fast_config()),
               InvalidArgument);
}

TEST(Advisor, RankingIsIdenticalForAnyWorkerCount) {
  // Each rank alone on its core: with no core-mate to compete with, the
  // priority changes nothing, so every candidate of a placement ties and
  // the stable sort must keep enumeration order.
  const std::vector<std::vector<std::uint32_t>> placements{{0, 2}, {0, 1}};
  const auto one = advise(imbalanced_pair(2), placements, {4, 5},
                          runner::BatchRunner({.jobs = 1}), fast_config());
  const auto four = advise(imbalanced_pair(2), placements, {4, 5},
                           runner::BatchRunner({.jobs = 4}), fast_config());
  ASSERT_EQ(one.ranked.size(), 8u);
  ASSERT_EQ(four.ranked.size(), one.ranked.size());
  for (std::size_t i = 0; i < one.ranked.size(); ++i) {
    EXPECT_EQ(describe(one.ranked[i]), describe(four.ranked[i])) << i;
    EXPECT_EQ(one.ranked[i].exec_time, four.ranked[i].exec_time) << i;
  }
  std::vector<std::string> tied;
  for (const AdvisorCandidate& candidate : one.ranked) {
    if (candidate.exec_time == one.ranked.front().exec_time) {
      tied.push_back(describe(candidate));
    }
  }
  EXPECT_EQ(tied, (std::vector<std::string>{
                      "cpus[0,2] prio[4,4]", "cpus[0,2] prio[5,4]",
                      "cpus[0,2] prio[4,5]", "cpus[0,2] prio[5,5]"}));
}

TEST(Advisor, DescribeFormatsCandidate) {
  AdvisorCandidate candidate;
  candidate.placement = mpisim::Placement::from_linear({0, 2});
  candidate.priorities = {6, 4};
  EXPECT_EQ(describe(candidate), "cpus[0,2] prio[6,4]");
}

TEST(Advisor, ConfigValidation) {
  const runner::BatchRunner runner;
  EXPECT_THROW((void)advise(imbalanced_pair(1), {}, {}, runner),
               InvalidArgument);
  EXPECT_THROW((void)advise(imbalanced_pair(1), {}, {0}, runner),
               InvalidArgument);
  EXPECT_THROW((void)advise(imbalanced_pair(1), {{0, 1, 2}}, {4}, runner),
               InvalidArgument);
}

}  // namespace
}  // namespace smtbal::policy
