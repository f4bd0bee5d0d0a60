#include "os/noise.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"

namespace smtbal::os {
namespace {

TEST(Noise, SilentConfigGeneratesNothing) {
  const auto events = generate_noise(NoiseConfig::silent(), 10.0, 4, 2);
  EXPECT_TRUE(events.empty());
}

TEST(Noise, EventsAreSortedByStart) {
  NoiseConfig config;
  const auto events = generate_noise(config, 0.5, 4, 2);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const NoiseEvent& a, const NoiseEvent& b) {
                               return a.start < b.start;
                             }));
}

TEST(Noise, DeterministicForSameConfig) {
  NoiseConfig config;
  const auto a = generate_noise(config, 0.2, 4, 2);
  const auto b = generate_noise(config, 0.2, 4, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].cpu, b[i].cpu);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
}

TEST(Noise, SeedChangesPoissonArrivals) {
  NoiseConfig a;
  a.tick_hz = 0.0;  // isolate the random components
  NoiseConfig b = a;
  b.seed = a.seed + 1;
  const auto ea = generate_noise(a, 1.0, 4, 2);
  const auto eb = generate_noise(b, 1.0, 4, 2);
  ASSERT_FALSE(ea.empty());
  ASSERT_FALSE(eb.empty());
  EXPECT_NE(ea.front().start, eb.front().start);
}

TEST(Noise, TickCountMatchesFrequency) {
  NoiseConfig config;
  config.cpu0_irq_hz = 0.0;
  config.daemon_hz = 0.0;
  config.tick_hz = 100.0;
  const auto events = generate_noise(config, 1.0, 2, 2);
  // 100 ticks per CPU over 1 second on 2 CPUs.
  EXPECT_EQ(events.size(), 200u);
  for (const NoiseEvent& event : events) {
    EXPECT_EQ(event.kind, NoiseKind::kTimerTick);
    EXPECT_DOUBLE_EQ(event.duration, config.tick_duration);
  }
}

TEST(Noise, DeviceInterruptsOnlyOnCpu0) {
  NoiseConfig config;
  config.tick_hz = 0.0;
  config.daemon_hz = 0.0;
  config.cpu0_irq_hz = 1000.0;
  const auto events = generate_noise(config, 1.0, 4, 2);
  ASSERT_FALSE(events.empty());
  for (const NoiseEvent& event : events) {
    EXPECT_EQ(event.kind, NoiseKind::kDeviceInterrupt);
    EXPECT_EQ(event.cpu.core, CoreId{0});
    EXPECT_EQ(event.cpu.slot, ThreadSlot{0});
  }
  // Poisson with rate 1000/s over 1 s: expect roughly 1000 events.
  EXPECT_GT(events.size(), 800u);
  EXPECT_LT(events.size(), 1200u);
}

TEST(Noise, DaemonsAppearOnEveryCpu) {
  NoiseConfig config;
  config.tick_hz = 0.0;
  config.cpu0_irq_hz = 0.0;
  config.daemon_hz = 50.0;
  const auto events = generate_noise(config, 1.0, 4, 2);
  std::array<int, 4> per_cpu{};
  for (const NoiseEvent& event : events) {
    ++per_cpu[event.cpu.linear(2)];
  }
  for (int count : per_cpu) EXPECT_GT(count, 20);
}

TEST(Noise, EventsWithinHorizon) {
  NoiseConfig config;
  const auto events = generate_noise(config, 0.25, 4, 2);
  for (const NoiseEvent& event : events) {
    EXPECT_LT(event.start, 0.25);
    EXPECT_GE(event.start, 0.0);
  }
}

TEST(Noise, EndIsStartPlusDuration) {
  NoiseEvent event{CpuId{CoreId{0}, ThreadSlot{0}}, 1.0, 0.5,
                   NoiseKind::kDaemon};
  EXPECT_DOUBLE_EQ(event.end(), 1.5);
}

TEST(Noise, RejectsBadArguments) {
  EXPECT_THROW(generate_noise(NoiseConfig{}, -1.0, 4, 2), InvalidArgument);
  EXPECT_THROW(generate_noise(NoiseConfig{}, 1.0, 0, 2), InvalidArgument);
}

}  // namespace
}  // namespace smtbal::os
