// smt::Core against the frozen pre-wake-wheel reference core, cycle by
// cycle: both step the same streams over their own (identical) memory
// hierarchies, and after every cycle each context's ThreadPerf and
// next_seq and the shared GCT occupancy must agree.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/kernel.hpp"
#include "isa/stream.hpp"
#include "mem/hierarchy.hpp"
#include "smt/core.hpp"
#include "smt_reference_core.hpp"

namespace smtbal::smt {
namespace {

using reference::ReferenceCore;

const isa::KernelRegistry& registry() {
  static const isa::KernelRegistry r = [] {
    isa::KernelRegistry reg;
    for (const auto& k : isa::builtin_kernels()) reg.register_kernel(k);
    // The longest exec_latency an op can carry: its wait sizes the wheel
    // when the hierarchy's miss latency is shorter.
    isa::KernelParams slow;
    slow.name = "slow_fpu";
    slow.mix = {0.3, 0.5, 0.1, 0.05, 0.05};
    slow.fpu_latency = 255;
    slow.dep_fraction = 0.9;
    slow.mean_dep_dist = 2.0;
    reg.register_kernel(slow);
    return reg;
  }();
  return r;
}

std::vector<std::string> kernel_names() {
  std::vector<std::string> names;
  for (const auto& k : isa::builtin_kernels()) names.push_back(k.name);
  return names;
}

bool same_perf(const ThreadPerf& a, const ThreadPerf& b) {
  return a.retired == b.retired &&
         a.decode_cycles_granted == b.decode_cycles_granted &&
         a.decode_cycles_wanted == b.decode_cycles_wanted &&
         a.loads == b.loads && a.branches == b.branches &&
         a.mispredicts == b.mispredicts;
}

/// Core and ReferenceCore driven through the same calls.
class Lockstep {
 public:
  explicit Lockstep(const CoreConfig& config,
                    const mem::HierarchyConfig& memory = {})
      : contexts_(config.threads_per_core),
        hierarchy_(memory),
        reference_hierarchy_(memory),
        core_(config, hierarchy_, 0),
        reference_(config, reference_hierarchy_, 0),
        streams_(contexts_),
        reference_streams_(contexts_) {}

  void bind(std::uint32_t slot, std::string_view kernel, std::uint64_t seed) {
    const isa::Kernel& k = registry().by_name(kernel);
    core_.bind_stream(ThreadSlot{slot}, &streams_[slot].emplace(k, seed));
    reference_.bind_stream(ThreadSlot{slot},
                           &reference_streams_[slot].emplace(k, seed));
  }
  void unbind(std::uint32_t slot) {
    core_.bind_stream(ThreadSlot{slot}, nullptr);
    reference_.bind_stream(ThreadSlot{slot}, nullptr);
  }
  void set_priority(std::uint32_t slot, HwPriority priority) {
    core_.set_priority(ThreadSlot{slot}, priority);
    reference_.set_priority(ThreadSlot{slot}, priority);
  }
  void drain() {
    core_.drain();
    reference_.drain();
  }
  void reset_perf() {
    core_.reset_perf();
    reference_.reset_perf();
  }

  /// Steps both cores `cycles` times, comparing after every cycle.
  ::testing::AssertionResult run(Cycle cycles) {
    for (Cycle c = 0; c < cycles; ++c) {
      core_.step();
      reference_.step();
      if (core_.gct_used() != reference_.gct_used()) {
        return ::testing::AssertionFailure()
               << "gct_used " << core_.gct_used() << " vs "
               << reference_.gct_used() << " at cycle " << core_.now();
      }
      for (std::uint32_t t = 0; t < contexts_; ++t) {
        const ThreadSlot slot{t};
        if (!same_perf(core_.perf(slot), reference_.perf(slot)) ||
            core_.next_seq(slot) != reference_.next_seq(slot)) {
          return ::testing::AssertionFailure()
                 << "context " << t << " diverged at cycle " << core_.now()
                 << ": retired " << core_.perf(slot).retired << " vs "
                 << reference_.perf(slot).retired << ", next_seq "
                 << core_.next_seq(slot) << " vs " << reference_.next_seq(slot);
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

  [[nodiscard]] const Core& core() const { return core_; }
  [[nodiscard]] const ReferenceCore& reference() const { return reference_; }

 private:
  std::uint32_t contexts_;
  mem::Hierarchy hierarchy_;
  mem::Hierarchy reference_hierarchy_;
  Core core_;
  ReferenceCore reference_;
  std::vector<std::optional<isa::StreamGen>> streams_;
  std::vector<std::optional<isa::StreamGen>> reference_streams_;
};

HwPriority prio(int level) { return priority_from_int(level); }

// Table II gaps 0..5 and the Table III rules for priorities 0 and 1.
constexpr std::array<std::array<int, 2>, 10> kPriorityPairs{{
    {4, 4}, {5, 4}, {4, 6}, {7, 2}, {2, 7}, {3, 6},
    {1, 4}, {6, 1}, {1, 1}, {0, 5},
}};

class CoreDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(CoreDifferential, EveryPartnerKernelMatchesTheReference) {
  const std::vector<std::string> names = kernel_names();
  for (std::size_t j = 0; j < names.size(); ++j) {
    SCOPED_TRACE(GetParam() + " + " + names[j]);
    Lockstep pair(CoreConfig{});
    pair.bind(0, GetParam(), 11);
    pair.bind(1, names[j], 12);
    // Two priority settings per pair, switched mid-run.
    const auto& first = kPriorityPairs[j % kPriorityPairs.size()];
    const auto& second = kPriorityPairs[(j + 3) % kPriorityPairs.size()];
    pair.set_priority(0, prio(first[0]));
    pair.set_priority(1, prio(first[1]));
    ASSERT_TRUE(pair.run(15000));
    pair.set_priority(0, prio(second[0]));
    pair.set_priority(1, prio(second[1]));
    ASSERT_TRUE(pair.run(15000));
  }
}

INSTANTIATE_TEST_SUITE_P(BuiltinKernels, CoreDifferential,
                         ::testing::ValuesIn(kernel_names()),
                         [](const auto& info) { return info.param; });

TEST(CoreDifferentialPriorities, EveryPriorityPairMatchesTheReference) {
  for (int a = 0; a <= 7; ++a) {
    for (int b = 0; b <= 7; ++b) {
      SCOPED_TRACE("priorities " + std::to_string(a) + "/" + std::to_string(b));
      Lockstep pair(CoreConfig{});
      pair.bind(0, isa::kKernelHpcMixed, 3);
      pair.bind(1, isa::kKernelMemStress, 4);
      pair.set_priority(0, prio(a));
      pair.set_priority(1, prio(b));
      ASSERT_TRUE(pair.run(6000));
    }
  }
}

TEST(CoreDifferentialContexts, OneContextMatchesTheReference) {
  CoreConfig config;
  config.threads_per_core = 1;
  for (const std::string& name : kernel_names()) {
    SCOPED_TRACE(name);
    Lockstep solo(config);
    solo.bind(0, name, 5);
    ASSERT_TRUE(solo.run(20000));
  }
}

TEST(CoreDifferentialContexts, FourContextsMatchTheReference) {
  CoreConfig config;
  config.threads_per_core = 4;
  const std::vector<std::string> names = kernel_names();
  for (std::size_t shift = 0; shift < names.size(); ++shift) {
    SCOPED_TRACE("shift " + std::to_string(shift));
    Lockstep quad(config);
    for (std::uint32_t t = 0; t < 4; ++t) {
      quad.bind(t, names[(shift + 2 * t) % names.size()], 20 + t);
      quad.set_priority(t, prio(static_cast<int>(2 + (shift + t) % 6)));
    }
    ASSERT_TRUE(quad.run(15000));
  }
}

TEST(CoreDifferentialWaits, MemStressWaitsPastTheOldSleepHorizon) {
  // Off-chip misses wait hundreds of cycles: far past the reference's
  // 8-cycle in-mask horizon, so its heap path is exercised too.
  Lockstep pair(CoreConfig{});
  pair.bind(0, isa::kKernelMemStress, 7);
  pair.bind(1, isa::kKernelL2Stress, 8);
  ASSERT_TRUE(pair.run(100000));
  EXPECT_GT(pair.reference().long_sleeps(), 1000u);
  EXPECT_GT(pair.core().perf(ThreadSlot{0}).loads, 0u);
}

TEST(CoreDifferentialWaits, WheelSizesFollowTheLongestWait) {
  // A short hierarchy leaves the 255-cycle exec_latency as the longest
  // wait; a long one needs a wheel well past the default 512 buckets.
  mem::HierarchyConfig fast;
  fast.memory_latency = 20;
  mem::HierarchyConfig slow;
  slow.memory_latency = 3000;
  for (const mem::HierarchyConfig& memory : {fast, slow}) {
    SCOPED_TRACE("memory latency " + std::to_string(memory.memory_latency));
    Lockstep pair(CoreConfig{}, memory);
    pair.bind(0, "slow_fpu", 9);
    pair.bind(1, isa::kKernelMemStress, 10);
    ASSERT_TRUE(pair.run(50000));
  }
}

TEST(CoreDifferentialConfigs, NonDefaultCoresMatchTheReference) {
  CoreConfig narrow;
  narrow.per_thread_inflight = 20;
  narrow.gct_entries = 30;
  narrow.issue_width = 3;
  narrow.fxu_units = 1;
  narrow.lsu_units = 1;
  CoreConfig greedy;
  greedy.work_conserving_decode = true;
  greedy.group_break_prob = 0.0;
  greedy.per_thread_inflight = 200;
  greedy.gct_entries = 256;
  for (const CoreConfig& config : {narrow, greedy}) {
    SCOPED_TRACE("inflight " + std::to_string(config.per_thread_inflight));
    Lockstep pair(config);
    pair.bind(0, isa::kKernelCfd, 13);
    pair.bind(1, isa::kKernelDft, 14);
    pair.set_priority(0, HwPriority::kHigh);
    ASSERT_TRUE(pair.run(20000));
  }
}

TEST(CoreDifferentialLifecycle, DrainAndRebindMidRunMatchTheReference) {
  Lockstep pair(CoreConfig{});
  pair.bind(0, isa::kKernelMemStress, 15);
  pair.bind(1, isa::kKernelHpcMixed, 16);
  ASSERT_TRUE(pair.run(2500));  // mid-miss: waits are pending on both
  pair.drain();
  ASSERT_TRUE(pair.run(2500));
  // Swap one context's stream with work in flight, idle the other, and
  // bring it back on a different kernel.
  pair.bind(0, isa::kKernelBranchStress, 17);
  pair.unbind(1);
  ASSERT_TRUE(pair.run(1000));
  pair.bind(1, isa::kKernelMemStress, 18);
  pair.reset_perf();
  ASSERT_TRUE(pair.run(2500));
  pair.drain();
  pair.bind(0, isa::kKernelSpinWait, 19);
  ASSERT_TRUE(pair.run(2500));
}

}  // namespace
}  // namespace smtbal::smt
