#include "smt/core.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "isa/stream.hpp"
#include "mem/hierarchy.hpp"
#include "smt/chip.hpp"

namespace smtbal::smt {
namespace {

isa::KernelRegistry& test_registry() {
  static isa::KernelRegistry registry = [] {
    isa::KernelRegistry r;
    for (const auto& k : isa::builtin_kernels()) r.register_kernel(k);

    isa::KernelParams fxu;
    fxu.name = "pure_fxu";
    fxu.mix = {1.0, 0.0, 0.0, 0.0, 0.0};
    fxu.dep_fraction = 0.0;
    fxu.fetch_gap_fraction = 0.0;
    r.register_kernel(fxu);

    isa::KernelParams branchy;
    branchy.name = "very_branchy";
    branchy.mix = {0.5, 0.0, 0.2, 0.0, 0.3};
    branchy.dep_fraction = 0.0;
    branchy.branch_mispredict_rate = 0.10;
    branchy.working_set_bytes = 4096;
    r.register_kernel(branchy);

    isa::KernelParams clean;
    clean.name = "branchy_clean";
    clean.mix = {0.5, 0.0, 0.2, 0.0, 0.3};
    clean.dep_fraction = 0.0;
    clean.branch_mispredict_rate = 0.0;
    clean.working_set_bytes = 4096;
    r.register_kernel(clean);

    // Fetch buffer empty 90% of cycles: reliably leaves the front-end in
    // the "no instructions" state for the drain regression test.
    isa::KernelParams gappy;
    gappy.name = "gappy";
    gappy.mix = {1.0, 0.0, 0.0, 0.0, 0.0};
    gappy.dep_fraction = 0.0;
    gappy.fetch_gap_fraction = 0.9;
    r.register_kernel(gappy);
    return r;
  }();
  return registry;
}

struct CoreFixture {
  explicit CoreFixture(CoreConfig config = {})
      : hierarchy(mem::HierarchyConfig{}), core(config, hierarchy, 0) {}

  double run_solo(std::string_view kernel, Cycle warmup = 20000,
                  Cycle window = 60000) {
    isa::StreamGen stream(test_registry().by_name(kernel), 1);
    core.bind_stream(ThreadSlot{0}, &stream);
    core.set_priority(ThreadSlot{0}, HwPriority::kMedium);
    core.set_priority(ThreadSlot{1}, HwPriority::kOff);
    core.run(warmup);
    core.reset_perf();
    core.run(window);
    core.bind_stream(ThreadSlot{0}, nullptr);
    return core.perf(ThreadSlot{0}).ipc(window);
  }

  mem::Hierarchy hierarchy;
  Core core;
};

TEST(CoreConfig, DefaultValidates) { EXPECT_NO_THROW(CoreConfig{}.validate()); }

TEST(CoreConfig, RejectsZeroWidths) {
  CoreConfig cfg;
  cfg.decode_width = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = CoreConfig{};
  cfg.issue_width = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = CoreConfig{};
  cfg.fpu_units = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = CoreConfig{};
  cfg.group_break_prob = 1.0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(Core, IdleCoreRetiresNothing) {
  CoreFixture f;
  f.core.run(1000);
  EXPECT_EQ(f.core.perf(ThreadSlot{0}).retired, 0u);
  EXPECT_EQ(f.core.perf(ThreadSlot{1}).retired, 0u);
  EXPECT_EQ(f.core.now(), 1000u);
}

TEST(Core, SoloThreadMakesProgress) {
  CoreFixture f;
  const double ipc = f.run_solo(isa::kKernelHpcMixed);
  EXPECT_GT(ipc, 0.5);
  EXPECT_LT(ipc, 5.0);
}

TEST(Core, PureFxuKernelBoundByFxuUnits) {
  CoreFixture f;
  const double ipc = f.run_solo("pure_fxu");
  // 2 FXU units, 1-cycle latency, no dependencies: exactly 2 IPC
  // sustained (group breaks only shape decode, which has slack).
  EXPECT_NEAR(ipc, 2.0, 0.05);
}

TEST(Core, MispredictsReduceThroughput) {
  CoreFixture f;
  const double dirty = f.run_solo("very_branchy");
  const double clean = f.run_solo("branchy_clean");
  EXPECT_LT(dirty, clean * 0.8)
      << "10% mispredicts should cost well over 20% of throughput";
}

TEST(Core, PerfCountsBranchesAndMispredicts) {
  CoreFixture f;
  isa::StreamGen stream(test_registry().by_name("very_branchy"), 1);
  f.core.bind_stream(ThreadSlot{0}, &stream);
  f.core.run(20000);
  const ThreadPerf& perf = f.core.perf(ThreadSlot{0});
  EXPECT_GT(perf.branches, 0u);
  EXPECT_GT(perf.mispredicts, 0u);
  EXPECT_LT(perf.mispredicts, perf.branches);
}

TEST(Core, GctNeverExceedsCapacity) {
  CoreConfig cfg;
  cfg.gct_entries = 32;
  cfg.per_thread_inflight = 32;
  CoreFixture f(cfg);
  isa::StreamGen s0(test_registry().by_name(isa::kKernelHpcMixed), 1);
  isa::StreamGen s1(test_registry().by_name(isa::kKernelHpcMixed), 2);
  f.core.bind_stream(ThreadSlot{0}, &s0);
  f.core.bind_stream(ThreadSlot{1}, &s1);
  for (int i = 0; i < 20000; ++i) {
    f.core.step();
    ASSERT_LE(f.core.gct_used(), 32u);
  }
}

TEST(Core, DrainEmptiesPipelines) {
  CoreFixture f;
  isa::StreamGen stream(test_registry().by_name(isa::kKernelHpcMixed), 1);
  f.core.bind_stream(ThreadSlot{0}, &stream);
  f.core.run(1000);
  EXPECT_GT(f.core.gct_used(), 0u);
  f.core.drain();
  EXPECT_EQ(f.core.gct_used(), 0u);
}

TEST(Core, DrainRestoresDecodeReadiness) {
  // Regression: drain() used to leave the per-cycle fetch_empty flag (and
  // the decode sequence numbering) as the last cycle drew them, so a
  // drained context could refuse decode on its first post-drain cycle.
  CoreFixture f;
  isa::StreamGen stream(test_registry().by_name("gappy"), 1);
  f.core.bind_stream(ThreadSlot{0}, &stream);
  f.core.set_priority(ThreadSlot{0}, HwPriority::kMedium);
  f.core.set_priority(ThreadSlot{1}, HwPriority::kOff);
  f.core.run(200);  // decode a few groups so next_seq advances
  // Step until the drawn fetch-buffer state blocks decode (gap 0.9 makes
  // this near-immediate), so the drain starts from the "stuck" state.
  bool blocked = false;
  for (int i = 0; i < 1000 && !blocked; ++i) {
    f.core.step();
    blocked = !f.core.decode_ready(ThreadSlot{0});
  }
  ASSERT_TRUE(blocked);
  ASSERT_GT(f.core.next_seq(ThreadSlot{0}), 0u);

  f.core.drain();
  EXPECT_TRUE(f.core.decode_ready(ThreadSlot{0}))
      << "a drained context must be able to decode immediately";
  EXPECT_EQ(f.core.next_seq(ThreadSlot{0}), 0u)
      << "drain must restart the decode sequence numbering";
  EXPECT_EQ(f.core.gct_used(), 0u);
}

TEST(Core, RebindResetsThreadState) {
  CoreFixture f;
  isa::StreamGen s0(test_registry().by_name(isa::kKernelHpcMixed), 1);
  f.core.bind_stream(ThreadSlot{0}, &s0);
  f.core.run(500);
  const std::uint32_t before = f.core.gct_used();
  EXPECT_GT(before, 0u);
  f.core.bind_stream(ThreadSlot{0}, nullptr);
  EXPECT_EQ(f.core.gct_used(), 0u);
}

TEST(Core, DeterministicForSameConfiguration) {
  auto run_once = [] {
    CoreFixture f;
    return f.run_solo(isa::kKernelCfd);
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Core, BadSlotThrows) {
  CoreFixture f;
  EXPECT_THROW(f.core.set_priority(ThreadSlot{2}, HwPriority::kMedium),
               InvalidArgument);
  EXPECT_THROW((void)f.core.perf(ThreadSlot{5}), InvalidArgument);
  EXPECT_THROW(f.core.bind_stream(ThreadSlot{3}, nullptr), InvalidArgument);
}

TEST(Core, PriorityAccessorsRoundTrip) {
  CoreFixture f;
  f.core.set_priority(ThreadSlot{0}, HwPriority::kHigh);
  f.core.set_priority(ThreadSlot{1}, HwPriority::kLow);
  EXPECT_EQ(f.core.priority(ThreadSlot{0}), HwPriority::kHigh);
  EXPECT_EQ(f.core.priority(ThreadSlot{1}), HwPriority::kLow);
}

// ---------------------------------------------------------------------------
// The load-bearing property: priority response of co-running threads.
// ---------------------------------------------------------------------------

struct PairRates {
  double a = 0.0;
  double b = 0.0;
};

PairRates run_pair(std::string_view kernel, HwPriority pa, HwPriority pb) {
  mem::Hierarchy hierarchy{mem::HierarchyConfig{}};
  Core core(CoreConfig{}, hierarchy, 0);
  isa::StreamGen sa(test_registry().by_name(kernel), 1);
  isa::StreamGen sb(test_registry().by_name(kernel), 2);
  core.bind_stream(ThreadSlot{0}, &sa);
  core.bind_stream(ThreadSlot{1}, &sb);
  core.set_priority(ThreadSlot{0}, pa);
  core.set_priority(ThreadSlot{1}, pb);
  core.run(30000);
  core.reset_perf();
  core.run(100000);
  return PairRates{core.perf(ThreadSlot{0}).ipc(100000),
                   core.perf(ThreadSlot{1}).ipc(100000)};
}

TEST(CorePriorities, EqualPrioritiesAreFair) {
  const PairRates rates =
      run_pair(isa::kKernelHpcMixed, HwPriority::kMedium, HwPriority::kMedium);
  EXPECT_NEAR(rates.a / rates.b, 1.0, 0.15);
}

class StarvationSweep : public ::testing::TestWithParam<int> {};

TEST_P(StarvationSweep, StarvedThreadSlowsMonotonicallyWithGap) {
  const int diff = GetParam();
  const PairRates eq =
      run_pair(isa::kKernelHpcMixed, HwPriority::kMedium, HwPriority::kMedium);
  const PairRates gap = run_pair(
      isa::kKernelHpcMixed, priority_from_int(6 - diff), HwPriority::kHigh);
  // The starved thread runs strictly slower than at equal priorities...
  EXPECT_LT(gap.a, eq.a);
  // ...and the favored one at least as fast.
  EXPECT_GT(gap.b, eq.b * 0.98);
  if (diff >= 2) {
    // Super-linear penalty: at gap 2 the starved thread is already below
    // half its equal-priority rate (paper Case D's warning).
    EXPECT_LT(gap.a, eq.a * 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Gaps, StarvationSweep, ::testing::Values(1, 2, 3, 4));

TEST(CorePriorities, PenaltyIsMonotoneAcrossGaps) {
  double previous = 1e9;
  for (int diff = 0; diff <= 4; ++diff) {
    const PairRates rates = run_pair(
        isa::kKernelHpcMixed, priority_from_int(6 - diff), HwPriority::kHigh);
    EXPECT_LT(rates.a, previous * 1.02) << "gap " << diff;
    previous = rates.a;
  }
}

TEST(CorePriorities, FavoredThreadSaturates) {
  // The favored thread's gain flattens: going from gap 2 to gap 4 must
  // gain far less than going from gap 0 to gap 2.
  const PairRates eq =
      run_pair(isa::kKernelHpcMixed, HwPriority::kMedium, HwPriority::kMedium);
  const PairRates gap2 =
      run_pair(isa::kKernelHpcMixed, HwPriority::kMedium, HwPriority::kHigh);
  const PairRates gap4 =
      run_pair(isa::kKernelHpcMixed, HwPriority::kLow, HwPriority::kHigh);
  const double first_gain = gap2.b - eq.b;
  const double second_gain = gap4.b - gap2.b;
  EXPECT_LT(second_gain, first_gain * 0.5);
}

TEST(CorePriorities, VeryLowRunsOnLeftoversOnly) {
  const PairRates rates =
      run_pair(isa::kKernelHpcMixed, HwPriority::kVeryLow, HwPriority::kMedium);
  EXPECT_GT(rates.b, rates.a * 3.0);
  EXPECT_GT(rates.a, 0.0) << "leftover cycles must still trickle through";
}

TEST(CorePriorities, StModeMatchesSoloRun) {
  // (priority, OFF) must behave like a single-threaded core.
  const PairRates st = [] {
    mem::Hierarchy hierarchy{mem::HierarchyConfig{}};
    Core core(CoreConfig{}, hierarchy, 0);
    isa::StreamGen sa(test_registry().by_name(isa::kKernelHpcMixed), 1);
    core.bind_stream(ThreadSlot{0}, &sa);
    core.set_priority(ThreadSlot{0}, HwPriority::kVeryHigh);
    core.set_priority(ThreadSlot{1}, HwPriority::kOff);
    core.run(30000);
    core.reset_perf();
    core.run(100000);
    return PairRates{core.perf(ThreadSlot{0}).ipc(100000), 0.0};
  }();
  const PairRates medium_vs_off = [] {
    mem::Hierarchy hierarchy{mem::HierarchyConfig{}};
    Core core(CoreConfig{}, hierarchy, 0);
    isa::StreamGen sa(test_registry().by_name(isa::kKernelHpcMixed), 1);
    core.bind_stream(ThreadSlot{0}, &sa);
    core.set_priority(ThreadSlot{0}, HwPriority::kMedium);
    core.set_priority(ThreadSlot{1}, HwPriority::kOff);
    core.run(30000);
    core.reset_perf();
    core.run(100000);
    return PairRates{core.perf(ThreadSlot{0}).ipc(100000), 0.0};
  }();
  // Against an OFF partner, the exact priority level is irrelevant.
  EXPECT_NEAR(st.a, medium_vs_off.a, st.a * 0.02);
}

TEST(CorePriorities, SmtBeatsSingleThreadInTotalThroughput) {
  const PairRates eq =
      run_pair(isa::kKernelHpcMixed, HwPriority::kMedium, HwPriority::kMedium);
  CoreFixture f;
  const double solo = f.run_solo(isa::kKernelHpcMixed, 30000, 100000);
  EXPECT_GT(eq.a + eq.b, solo * 1.1)
      << "SMT must provide a real multi-threading throughput gain";
}

TEST(Chip, ConfigCpuMapping) {
  ChipConfig cfg;
  EXPECT_EQ(cfg.num_contexts(), 4u);
  EXPECT_EQ(cfg.cpu(0).core, CoreId{0});
  EXPECT_EQ(cfg.cpu(0).slot, ThreadSlot{0});
  EXPECT_EQ(cfg.cpu(1).core, CoreId{0});
  EXPECT_EQ(cfg.cpu(1).slot, ThreadSlot{1});
  EXPECT_EQ(cfg.cpu(2).core, CoreId{1});
  EXPECT_EQ(cfg.cpu(3).slot, ThreadSlot{1});
  EXPECT_THROW((void)cfg.cpu(4), InvalidArgument);
}

TEST(Chip, CoresShareL2) {
  ChipConfig cfg;
  Chip chip(cfg);
  isa::StreamGen s0(test_registry().by_name(isa::kKernelL2Stress), 1);
  chip.bind_stream(cfg.cpu(0), &s0);
  chip.run(50000);
  EXPECT_GT(chip.memory().l2().stats().accesses(), 0u);
}

TEST(Chip, ResetClearsPerfAndCaches) {
  ChipConfig cfg;
  Chip chip(cfg);
  isa::StreamGen s0(test_registry().by_name(isa::kKernelHpcMixed), 1);
  chip.bind_stream(cfg.cpu(0), &s0);
  chip.run(5000);
  EXPECT_GT(chip.perf(cfg.cpu(0)).retired, 0u);
  chip.reset();
  EXPECT_EQ(chip.perf(cfg.cpu(0)).retired, 0u);
  EXPECT_EQ(chip.memory().l1d(0).valid_lines(), 0u);
}

TEST(Chip, RunSkipsIdleCoresButAdvancesTheirClocks) {
  // An idle core is not stepped, yet its clock reads as if it had been,
  // and the busy core's counters match a chip that steps every core.
  ChipConfig config;
  isa::StreamGen a(test_registry().by_name(isa::kKernelHpcMixed), 1);
  isa::StreamGen b(test_registry().by_name(isa::kKernelHpcMixed), 1);
  Chip skipping(config);
  Chip stepping(config);
  skipping.bind_stream(config.cpu(2), &a);
  stepping.bind_stream(config.cpu(2), &b);
  EXPECT_TRUE(skipping.core(CoreId{0}).idle());
  EXPECT_FALSE(skipping.core(CoreId{1}).idle());
  skipping.run(3000);
  for (int i = 0; i < 3000; ++i) stepping.step();
  EXPECT_EQ(skipping.core(CoreId{0}).now(), 3000u);
  EXPECT_EQ(skipping.core(CoreId{1}).now(), 3000u);
  EXPECT_EQ(skipping.perf(config.cpu(2)).retired,
            stepping.perf(config.cpu(2)).retired);
  EXPECT_EQ(skipping.perf(config.cpu(0)).decode_cycles_wanted, 0u);
}

TEST(Chip, RejectsMismatchedMemoryCores) {
  ChipConfig cfg;
  cfg.num_cores = 1;
  EXPECT_THROW(Chip{cfg}, InvalidArgument);
}

}  // namespace
}  // namespace smtbal::smt
