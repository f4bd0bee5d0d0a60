#include "os/noise.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace smtbal::os {

std::vector<NoiseEvent> generate_noise(const NoiseConfig& config,
                                       SimTime horizon,
                                       std::uint32_t num_cpus,
                                       std::uint32_t slots_per_core) {
  SMTBAL_REQUIRE(horizon >= 0.0, "horizon must be non-negative");
  SMTBAL_REQUIRE(num_cpus > 0, "need at least one CPU");
  std::vector<NoiseEvent> events;
  Rng rng(config.seed);

  const auto cpu_id = [&](std::uint32_t linear) {
    return CpuId{CoreId{linear / slots_per_core},
                 ThreadSlot{linear % slots_per_core}};
  };

  // Periodic timer ticks on every CPU, phase-shifted per CPU so they do
  // not align (as on real SMP systems).
  if (config.tick_hz > 0.0) {
    const SimTime period = 1.0 / config.tick_hz;
    for (std::uint32_t c = 0; c < num_cpus; ++c) {
      SimTime t = period * (static_cast<double>(c) /
                            static_cast<double>(num_cpus));
      while (t < horizon) {
        events.push_back(
            {cpu_id(c), t, config.tick_duration, NoiseKind::kTimerTick});
        t += period;
      }
    }
  }

  // Device interrupts: Poisson arrivals, all routed to CPU0.
  if (config.cpu0_irq_hz > 0.0) {
    SimTime t = exponential(rng, 1.0 / config.cpu0_irq_hz);
    while (t < horizon) {
      events.push_back(
          {cpu_id(0), t, config.irq_duration, NoiseKind::kDeviceInterrupt});
      t += exponential(rng, 1.0 / config.cpu0_irq_hz);
    }
  }

  // Daemons: Poisson arrivals per CPU.
  if (config.daemon_hz > 0.0) {
    for (std::uint32_t c = 0; c < num_cpus; ++c) {
      SimTime t = exponential(rng, 1.0 / config.daemon_hz);
      while (t < horizon) {
        events.push_back(
            {cpu_id(c), t, config.daemon_duration, NoiseKind::kDaemon});
        t += exponential(rng, 1.0 / config.daemon_hz);
      }
    }
  }

  std::sort(events.begin(), events.end(),
            [](const NoiseEvent& a, const NoiseEvent& b) {
              return a.start < b.start;
            });
  return events;
}

}  // namespace smtbal::os
