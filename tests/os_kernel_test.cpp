#include "os/kernel.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace smtbal::os {
namespace {

smt::ChipConfig chip() { return smt::ChipConfig{}; }

CpuId cpu(std::uint32_t linear) { return chip().cpu(linear); }

TEST(KernelModel, SpawnPinsAndDefaultsToMedium) {
  KernelModel kernel(KernelFlavor::kPatched, chip());
  const Pid pid = kernel.spawn(cpu(2));
  EXPECT_EQ(kernel.cpu_of(pid), cpu(2));
  EXPECT_EQ(kernel.process_on(cpu(2)), pid);
  EXPECT_EQ(kernel.effective_priority(cpu(2)), smt::kDefaultPriority);
}

TEST(KernelModel, SpawnRejectsOccupiedCpu) {
  KernelModel kernel(KernelFlavor::kPatched, chip());
  kernel.spawn(cpu(0));
  EXPECT_THROW(kernel.spawn(cpu(0)), InvalidArgument);
}

TEST(KernelModel, ExitShutsContextOff) {
  KernelModel kernel(KernelFlavor::kPatched, chip());
  const Pid pid = kernel.spawn(cpu(1));
  kernel.exit_process(pid);
  EXPECT_FALSE(kernel.process_on(cpu(1)).has_value());
  // The idle loop eventually shuts the thread off => ST mode for the mate.
  EXPECT_EQ(kernel.effective_priority(cpu(1)), smt::HwPriority::kOff);
  EXPECT_THROW(kernel.exit_process(pid), InvalidArgument);
}

TEST(KernelModel, UnknownPidThrows) {
  KernelModel kernel(KernelFlavor::kPatched, chip());
  EXPECT_THROW((void)kernel.cpu_of(Pid{12345}), InvalidArgument);
}

// --- or-nop interface privilege enforcement -------------------------------

class OrnopPrivilegeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};
// params: (priority, privilege level as int)

TEST_P(OrnopPrivilegeSweep, EnforcesTableOne) {
  const auto [priority, level_int] = GetParam();
  const auto level = static_cast<smt::PrivilegeLevel>(level_int);
  KernelModel kernel(KernelFlavor::kVanilla, chip());
  const Pid pid = kernel.spawn(cpu(0));
  const bool allowed = smt::can_set(level, smt::priority_from_int(priority));
  if (allowed) {
    kernel.set_priority_ornop(pid, smt::priority_from_int(priority), level);
    EXPECT_EQ(kernel.effective_priority(cpu(0)),
              smt::priority_from_int(priority));
  } else {
    EXPECT_THROW(
        kernel.set_priority_ornop(pid, smt::priority_from_int(priority), level),
        InvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, OrnopPrivilegeSweep,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(0, 3)));

// --- /proc/<pid>/hmt_priority ----------------------------------------------

TEST(KernelModel, HmtPriorityOnlyOnPatchedKernel) {
  KernelModel vanilla(KernelFlavor::kVanilla, chip());
  const Pid pid = vanilla.spawn(cpu(0));
  EXPECT_THROW(vanilla.write_hmt_priority(pid, 6), InvalidArgument);

  KernelModel patched(KernelFlavor::kPatched, chip());
  const Pid pid2 = patched.spawn(cpu(0));
  patched.write_hmt_priority(pid2, 6);
  EXPECT_EQ(patched.effective_priority(cpu(0)), smt::HwPriority::kHigh);
}

TEST(KernelModel, HmtPriorityRangeIs1To6) {
  KernelModel patched(KernelFlavor::kPatched, chip());
  const Pid pid = patched.spawn(cpu(0));
  EXPECT_THROW(patched.write_hmt_priority(pid, 0), InvalidArgument);
  EXPECT_THROW(patched.write_hmt_priority(pid, 7), InvalidArgument);
  for (int p = 1; p <= 6; ++p) {
    patched.write_hmt_priority(pid, p);
    EXPECT_EQ(patched.effective_priority(cpu(0)), smt::priority_from_int(p));
  }
}

// --- interrupt / syscall reset semantics -----------------------------------

TEST(KernelModel, VanillaResetsPriorityOnInterrupt) {
  KernelModel kernel(KernelFlavor::kVanilla, chip());
  const Pid pid = kernel.spawn(cpu(0));
  kernel.set_priority_ornop(pid, smt::HwPriority::kLow,
                            smt::PrivilegeLevel::kUser);
  EXPECT_EQ(kernel.effective_priority(cpu(0)), smt::HwPriority::kLow);
  kernel.on_interrupt(cpu(0));
  EXPECT_EQ(kernel.effective_priority(cpu(0)), smt::kDefaultPriority);
  EXPECT_EQ(kernel.priority_resets(), 1u);
}

TEST(KernelModel, PatchedPreservesPriorityAcrossInterrupts) {
  KernelModel kernel(KernelFlavor::kPatched, chip());
  const Pid pid = kernel.spawn(cpu(0));
  kernel.write_hmt_priority(pid, 6);
  kernel.on_interrupt(cpu(0));
  EXPECT_EQ(kernel.effective_priority(cpu(0)), smt::HwPriority::kHigh);
  EXPECT_EQ(kernel.priority_resets(), 0u);
}

TEST(KernelModel, VanillaResetOnlyCountsActualChanges) {
  KernelModel kernel(KernelFlavor::kVanilla, chip());
  kernel.spawn(cpu(0));
  // Already MEDIUM: an interrupt performs no visible reset.
  kernel.on_interrupt(cpu(0));
  EXPECT_EQ(kernel.priority_resets(), 0u);
}

TEST(KernelModel, InterruptOnIdleCpuIsNoop) {
  KernelModel kernel(KernelFlavor::kVanilla, chip());
  EXPECT_NO_THROW(kernel.on_interrupt(cpu(2)));
  EXPECT_EQ(kernel.priority_resets(), 0u);
}

TEST(KernelModel, MultipleProcessesIndependentPriorities) {
  KernelModel kernel(KernelFlavor::kPatched, chip());
  const Pid a = kernel.spawn(cpu(0));
  const Pid b = kernel.spawn(cpu(1));
  kernel.write_hmt_priority(a, 6);
  kernel.write_hmt_priority(b, 2);
  EXPECT_EQ(kernel.effective_priority(cpu(0)), smt::HwPriority::kHigh);
  EXPECT_EQ(kernel.effective_priority(cpu(1)), smt::HwPriority::kLow);
}

}  // namespace
}  // namespace smtbal::os
