// Tests for the N-way generalization of the chip model: the weighted
// decode schedule, its exact reduction to the 2-context Tables II/III,
// N-way cores, SMT4 chips through the sampler, engine and batch runner,
// and the CoreConfig::threads_per_core parameter.
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "mpisim/engine.hpp"
#include "policy/static_priority.hpp"
#include "runner/batch.hpp"
#include "runner/report.hpp"
#include "smt/chip.hpp"
#include "smt/priority.hpp"
#include "smt/sampler.hpp"
#include "workloads/cases.hpp"

namespace smtbal::smt {
namespace {

HwPriority prio(int level) { return priority_from_int(level); }

TEST(DecodeShareSymmetry, AllSixtyFourPairsMirror) {
  for (int a = 0; a <= 7; ++a) {
    for (int b = 0; b <= 7; ++b) {
      const DecodeShare ab = decode_share(prio(a), prio(b));
      const DecodeShare ba = decode_share(prio(b), prio(a));
      EXPECT_EQ(ab.slice_cycles, ba.slice_cycles) << a << "," << b;
      EXPECT_EQ(ab.slots_a, ba.slots_b) << a << "," << b;
      EXPECT_EQ(ab.slots_b, ba.slots_a) << a << "," << b;
      EXPECT_EQ(ab.a_runs, ba.b_runs) << a << "," << b;
      EXPECT_EQ(ab.b_runs, ba.a_runs) << a << "," << b;
      EXPECT_EQ(ab.a_leftover_only, ba.b_leftover_only) << a << "," << b;
      EXPECT_EQ(ab.b_leftover_only, ba.a_leftover_only) << a << "," << b;
    }
  }
}

TEST(DecodeSchedule, MatchesDecodeShareForEveryPair) {
  // The pair view is derived from the N-way schedule; pin the equivalence
  // so the schedule cannot drift from the paper tables.
  for (int a = 0; a <= 7; ++a) {
    for (int b = 0; b <= 7; ++b) {
      const std::array<HwPriority, 2> pair{prio(a), prio(b)};
      const DecodeSchedule schedule = decode_schedule(pair);
      const DecodeShare share = decode_share(prio(a), prio(b));
      EXPECT_EQ(schedule.slice_cycles, share.slice_cycles) << a << "," << b;
      EXPECT_EQ(schedule.slots[0], share.slots_a) << a << "," << b;
      EXPECT_EQ(schedule.slots[1], share.slots_b) << a << "," << b;
      EXPECT_EQ(schedule.runs[0] != 0, share.a_runs) << a << "," << b;
      EXPECT_EQ(schedule.runs[1] != 0, share.b_runs) << a << "," << b;
    }
  }
}

TEST(DecodeSchedule, EqualPrioritiesSliceEvenly) {
  // Equal-priority N-way slicing must grant each context the same share
  // over a full slice, for every context count and level.
  for (std::size_t n : {2u, 3u, 4u, 8u}) {
    for (int level = 2; level <= 7; ++level) {
      const std::vector<HwPriority> priorities(n, prio(level));
      const DecodeSchedule schedule = decode_schedule(priorities);
      EXPECT_EQ(schedule.slice_cycles, n) << n << " @ " << level;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(schedule.slots[i], 1u) << n << " @ " << level;
      }

      // And the arbiter grants exactly that share when everyone wants.
      const DecodeArbiter arbiter{priorities};
      const std::vector<ThreadSignals> all_want(n,
                                                ThreadSignals{true, true});
      std::vector<std::uint64_t> granted(n, 0);
      for (Cycle c = 0; c < schedule.slice_cycles * 16; ++c) {
        const int g = arbiter.grant(c, all_want);
        ASSERT_GE(g, 0);
        ++granted[static_cast<std::size_t>(g)];
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(granted[i], 16u) << n << " @ " << level;
      }
    }
  }
}

TEST(DecodeSchedule, WeightedSliceReducesToTableTwo) {
  // {4,6,4,4}: p_min = 4, weights {1, 7, 1, 1} -> slice 10; the favored
  // context owns 7 of 10 cycles and the light ones 1 each.
  const std::vector<HwPriority> priorities{prio(4), prio(6), prio(4),
                                           prio(4)};
  const DecodeSchedule schedule = decode_schedule(priorities);
  EXPECT_EQ(schedule.slice_cycles, 10u);
  EXPECT_EQ(schedule.slots[0], 1u);
  EXPECT_EQ(schedule.slots[1], 7u);
  EXPECT_EQ(schedule.slots[2], 1u);
  EXPECT_EQ(schedule.slots[3], 1u);
  EXPECT_DOUBLE_EQ(schedule.fraction(1), 0.7);
}

TEST(DecodeSchedule, LowPriorityContextsOwnTheFirstCycles) {
  // Layout is ascending (priority, slot): at N = 2 this is the paper's
  // "cycle 0 belongs to the low-priority thread" rule.
  const std::vector<HwPriority> priorities{prio(6), prio(4)};
  const DecodeSchedule schedule = decode_schedule(priorities);
  EXPECT_EQ(schedule.owner_of_pos[0], 1);
  for (std::uint32_t pos = 1; pos < schedule.slice_cycles; ++pos) {
    EXPECT_EQ(schedule.owner_of_pos[pos], 0);
  }
}

TEST(DecodeSchedule, OffContextsNeverOwnOrRun) {
  const std::vector<HwPriority> priorities{prio(0), prio(4), prio(0),
                                           prio(5)};
  const DecodeSchedule schedule = decode_schedule(priorities);
  EXPECT_EQ(schedule.runs[0], 0);
  EXPECT_EQ(schedule.runs[2], 0);
  EXPECT_EQ(schedule.slots[0], 0u);
  EXPECT_EQ(schedule.slots[2], 0u);
  for (const std::int32_t owner : schedule.owner_of_pos) {
    EXPECT_TRUE(owner == 1 || owner == 3);
  }
}

TEST(DecodeSchedule, VeryLowTakesLeftoversAtFourContexts) {
  const std::vector<HwPriority> priorities{prio(1), prio(4), prio(4),
                                           prio(4)};
  const DecodeSchedule schedule = decode_schedule(priorities);
  EXPECT_EQ(schedule.slots[0], 0u);
  EXPECT_NE(schedule.leftover_only[0], 0);
  EXPECT_EQ(schedule.slice_cycles, 3u);

  // The VERY-LOW context decodes only on leftovers. A starved slot is
  // donated to higher-priority core-mates first; the VERY-LOW context
  // gets the cycle only when every slot owner is fetch-starved.
  const DecodeArbiter arbiter{priorities};
  std::vector<ThreadSignals> signals(4, ThreadSignals{true, true});
  EXPECT_NE(arbiter.grant(0, signals), 0);
  signals[1] = ThreadSignals{false, false};  // owner of cycle 0 starves
  EXPECT_EQ(arbiter.grant(0, signals), 2);   // next-highest owner first
  signals[2] = ThreadSignals{false, false};
  signals[3] = ThreadSignals{false, false};
  EXPECT_EQ(arbiter.grant(0, signals), 0);   // leftover finally reachable
}

TEST(DecodeSchedule, PowerSaveGeneralizesToFourContexts) {
  const std::vector<HwPriority> priorities(4, prio(1));
  const DecodeSchedule schedule = decode_schedule(priorities);
  EXPECT_EQ(schedule.slice_cycles, 64u);
  std::uint32_t owned = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(schedule.slots[i], 1u);
    owned += schedule.slots[i];
  }
  EXPECT_EQ(owned, 4u);
  // Evenly spread: positions 0, 16, 32, 48.
  EXPECT_EQ(schedule.owner_of_pos[0], 0);
  EXPECT_EQ(schedule.owner_of_pos[16], 1);
  EXPECT_EQ(schedule.owner_of_pos[32], 2);
  EXPECT_EQ(schedule.owner_of_pos[48], 3);
}

TEST(DecodeSchedule, LoneVeryLowKeepsTheOneOfThirtyTwoRule) {
  // Table III (0,1) at any width: partners all OFF, one VERY-LOW
  // survivor -> 1 of 32 cycles.
  const std::vector<HwPriority> priorities{prio(0), prio(0), prio(1),
                                           prio(0)};
  const DecodeSchedule schedule = decode_schedule(priorities);
  EXPECT_EQ(schedule.slice_cycles, 32u);
  EXPECT_EQ(schedule.slots[2], 1u);
  EXPECT_EQ(schedule.owner_of_pos[0], 2);
}

TEST(DecodeArbiter, DonatesToHighestPriorityCandidate) {
  // Cycle 0 of {4,6,5,4} belongs to context 0 (lowest priority). When it
  // starves, the donation goes to the highest-priority wanting context.
  const std::vector<HwPriority> priorities{prio(4), prio(6), prio(5),
                                           prio(4)};
  const DecodeArbiter arbiter{priorities};
  ASSERT_EQ(arbiter.schedule().owner_of_pos[0], 0);

  std::vector<ThreadSignals> signals(4, ThreadSignals{true, true});
  signals[0] = ThreadSignals{false, false};
  EXPECT_EQ(arbiter.grant(0, signals), 1);
  signals[1] = ThreadSignals{false, true};
  EXPECT_EQ(arbiter.grant(0, signals), 2);
  signals[2] = ThreadSignals{false, true};
  EXPECT_EQ(arbiter.grant(0, signals), 3);
}

TEST(DecodeArbiter, ResourceBlockedOwnerWastesTheSlotAtFourContexts) {
  const std::vector<HwPriority> priorities(4, prio(4));
  const DecodeArbiter arbiter{priorities};
  std::vector<ThreadSignals> signals(4, ThreadSignals{true, true});
  // Owner of cycle 0 has instructions but is resource-blocked: strict
  // slicing wastes the cycle instead of donating it.
  signals[0] = ThreadSignals{false, true};
  EXPECT_EQ(arbiter.grant(0, signals), -1);
}

TEST(DecodeArbiter, TwoContextsDriveTheNWaySchedule) {
  DecodeArbiter arbiter({prio(4), prio(6)});
  EXPECT_EQ(arbiter.num_contexts(), 2u);
  EXPECT_EQ(arbiter.schedule().slice_cycles, 8u);
  arbiter.set_priority(0, prio(6));
  arbiter.set_priority(1, prio(4));
  EXPECT_EQ(arbiter.schedule().slots[0], 7u);
  const std::array<ThreadSignals, 2> signals{ThreadSignals{true, true},
                                             ThreadSignals{true, true}};
  EXPECT_EQ(arbiter.grant(Cycle{0}, signals), 1);  // low priority owns cycle 0
}

TEST(CoreConfigValidate, GroupBreakProbBoundary) {
  CoreConfig config;
  config.group_break_prob = 0.0;
  EXPECT_NO_THROW(config.validate());
  config.group_break_prob =
      std::nextafter(1.0, 0.0);  // largest value in [0,1)
  EXPECT_NO_THROW(config.validate());
  config.group_break_prob = 1.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.group_break_prob = -0.01;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(CoreConfigValidate, ThreadsPerCoreBounds) {
  CoreConfig config;
  config.threads_per_core = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.threads_per_core = 4;
  EXPECT_NO_THROW(config.validate());
  config.threads_per_core = 65;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(Smt4Chip, ConfigMapsLinearCpusAcrossFourSlots) {
  ChipConfig config;
  config.core.threads_per_core = 4;
  EXPECT_EQ(config.threads_per_core(), 4u);
  EXPECT_EQ(config.num_contexts(), 8u);
  EXPECT_EQ(config.cpu(0), (CpuId{CoreId{0}, ThreadSlot{0}}));
  EXPECT_EQ(config.cpu(5), (CpuId{CoreId{1}, ThreadSlot{1}}));
  EXPECT_EQ(config.cpu(7), (CpuId{CoreId{1}, ThreadSlot{3}}));
  EXPECT_THROW((void)config.cpu(8), InvalidArgument);
}

TEST(Smt4Chip, CoreRejectsSlotsBeyondItsWidth) {
  ChipConfig config;
  config.core.threads_per_core = 4;
  Chip chip(config);
  EXPECT_NO_THROW((void)chip.core(CoreId{0}).perf(ThreadSlot{3}));
  EXPECT_THROW((void)chip.core(CoreId{0}).perf(ThreadSlot{4}),
               InvalidArgument);
}

TEST(Smt4Sampler, MeasuresAnEightContextLoad) {
  ChipConfig config;
  config.core.threads_per_core = 4;
  ThroughputSampler sampler(config, {.warmup_cycles = 2000,
                                     .window_cycles = 10000,
                                     .seed = 7});
  const isa::KernelId kernel =
      isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;

  ChipLoad load;
  for (std::uint32_t ctx = 0; ctx < 8; ++ctx) {
    load.contexts[ctx] = ContextLoad{kernel, HwPriority::kMedium};
  }
  const SampleResult& result = sampler.sample(load);
  for (std::uint32_t ctx = 0; ctx < 8; ++ctx) {
    EXPECT_GT(result.ipc[ctx], 0.0) << "context " << ctx;
  }
  for (std::uint32_t ctx = 8; ctx < kMaxContexts; ++ctx) {
    EXPECT_EQ(result.ipc[ctx], 0.0) << "context " << ctx;
  }

  // Raising one context's priority shifts decode share toward it.
  ChipLoad favored = load;
  favored.contexts[1] = ContextLoad{kernel, HwPriority::kHigh};
  const SampleResult& skewed = sampler.sample(favored);
  EXPECT_GT(skewed.ipc[1], result.ipc[1]);
  EXPECT_LT(skewed.ipc[0], result.ipc[0]);
}

/// 8-rank compute+barrier app for a 2-core x 4-context chip; ranks 1 and
/// 5 carry `ratio` times the work of the others.
mpisim::Application smt4_app(double ratio) {
  const isa::KernelId kernel =
      isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;
  mpisim::Application app;
  app.name = "smt4-test";
  app.ranks.resize(8);
  for (std::size_t r = 0; r < app.size(); ++r) {
    const double work = (r == 1 || r == 5) ? 2e7 * ratio : 2e7;
    for (int i = 0; i < 3; ++i) {
      app.ranks[r].compute(kernel, work).barrier();
    }
  }
  return app;
}

mpisim::EngineConfig smt4_engine_config() {
  mpisim::EngineConfig config;
  config.chip.core.threads_per_core = 4;
  config.sampler = {.warmup_cycles = 2000, .window_cycles = 10000, .seed = 3};
  return config;
}

TEST(Smt4Engine, RunsEndToEndAndPrioritiesReduceImbalance) {
  const mpisim::EngineConfig config = smt4_engine_config();
  const auto placement = mpisim::Placement::identity(8, 4);
  const auto sampler =
      std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);
  const mpisim::Application app = smt4_app(4.0);

  mpisim::Engine reference_engine(app, placement, config, sampler);
  const mpisim::RunResult reference = reference_engine.run();
  EXPECT_GT(reference.exec_time, 0.0);
  EXPECT_GT(reference.imbalance, 0.2);  // one hog per core, three waiting

  policy::StaticPriorityPolicy policy({4, 6, 4, 4, 4, 6, 4, 4});
  mpisim::Engine balanced_engine(app, placement, config, sampler);
  balanced_engine.set_policy(&policy);
  const mpisim::RunResult balanced = balanced_engine.run();
  EXPECT_LT(balanced.imbalance, reference.imbalance);
  EXPECT_LT(balanced.exec_time, reference.exec_time);
}

TEST(Smt4Engine, BatchRunnerCarriesTheSmt4Chip) {
  const mpisim::Application app = smt4_app(4.0);
  std::vector<runner::RunSpec> specs;
  for (const workloads::PaperCase& c : workloads::smt4_cases()) {
    runner::RunSpec spec;
    spec.label = c.label;
    spec.app = app;
    spec.placement = c.placement;
    spec.config = smt4_engine_config();
    spec.make_policy = [priorities = c.priorities] {
      return std::unique_ptr<mpisim::BalancePolicy>(
          new policy::StaticPriorityPolicy(priorities));
    };
    specs.push_back(std::move(spec));
  }
  const runner::BatchResult batch =
      runner::BatchRunner({.jobs = 2}).run(specs);
  ASSERT_EQ(batch.runs.size(), 4u);
  EXPECT_EQ(batch.failures, 0u);
  std::map<std::string, double> imbalance;
  for (const runner::RunOutcome& out : batch.runs) {
    ASSERT_TRUE(out.ok) << out.label << ": " << out.error;
    imbalance[out.label] = out.result->imbalance;
  }
  EXPECT_LT(imbalance.at("C"), imbalance.at("A"));
  // The batch surfaces sampler efficiency counters.
  EXPECT_GT(batch.sampler_stats.lookups, 0u);
  EXPECT_GT(batch.sampler_stats.misses, 0u);

  // The JSONL report ends with the one scheduling-dependent line: the
  // batch-summary trailer carrying those counters. Per-run records stay
  // trailer-free so they remain byte-identical across worker counts.
  std::ostringstream os;
  runner::write_jsonl(batch, os);
  std::vector<std::string> lines;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), batch.runs.size() + 1);
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    EXPECT_EQ(lines[i].find("smtbal.bench.batch/"), std::string::npos);
  }
  const std::string& trailer = lines.back();
  EXPECT_NE(trailer.find("\"schema\":\"smtbal.bench.batch/3\""),
            std::string::npos);
  EXPECT_NE(trailer.find("\"local_hits\""), std::string::npos);
  EXPECT_NE(trailer.find("\"sampler\""), std::string::npos);
  EXPECT_NE(trailer.find("\"sample_cache\""), std::string::npos);
  EXPECT_EQ(trailer, runner::to_json_batch_record(batch));
}

}  // namespace
}  // namespace smtbal::smt
