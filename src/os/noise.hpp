// OS-noise model: extrinsic imbalance sources (paper §II-B).
//
// Three noise classes are generated:
//   * timer ticks        — short, periodic, on every CPU
//   * device interrupts  — the "interrupt annoyance problem": all device
//                          interrupts are routed to CPU0, so CPU0's noise
//                          is much higher than the others'
//   * user daemons       — rare, long preemptions (profile collectors...)
//
// Each event steals the CPU from the pinned MPI process for its duration
// and (on a vanilla kernel) resets the context's hardware priority.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace smtbal::os {

enum class NoiseKind : std::uint8_t {
  kTimerTick = 0,
  kDeviceInterrupt = 1,
  kDaemon = 2,
};

struct NoiseEvent {
  CpuId cpu;
  SimTime start = 0.0;
  SimTime duration = 0.0;
  NoiseKind kind = NoiseKind::kTimerTick;

  [[nodiscard]] SimTime end() const { return start + duration; }
};

struct NoiseConfig {
  /// Timer tick frequency (HZ=1000 on the paper's 2.6 kernels) and cost.
  double tick_hz = 1000.0;
  SimTime tick_duration = 2e-6;

  /// Device-interrupt rate on CPU0 (exponential inter-arrivals) and cost.
  double cpu0_irq_hz = 500.0;
  SimTime irq_duration = 10e-6;

  /// Daemon wakeups per second per CPU and their duration.
  double daemon_hz = 0.1;
  SimTime daemon_duration = 5e-3;

  std::uint64_t seed = 0xA015Eu;

  /// Disables everything (the default for paper-table reproduction: the
  /// paper's experiments measure intrinsic imbalance).
  [[nodiscard]] static NoiseConfig silent() {
    NoiseConfig config;
    config.tick_hz = 0.0;
    config.cpu0_irq_hz = 0.0;
    config.daemon_hz = 0.0;
    return config;
  }
};

/// Generates all noise events in [0, horizon) over `num_cpus` CPUs,
/// sorted by start time. Deterministic for a given config.
[[nodiscard]] std::vector<NoiseEvent> generate_noise(const NoiseConfig& config,
                                                     SimTime horizon,
                                                     std::uint32_t num_cpus,
                                                     std::uint32_t slots_per_core);

/// Incremental view over the generated noise timeline: the discrete-event
/// engine pulls one event at a time and schedules it in its own queue, so
/// noise is an event *source* rather than a list the engine rescans.
/// Deterministic for a given config (same order as generate_noise).
class NoiseSource {
 public:
  /// An empty source (no noise).
  NoiseSource() = default;

  NoiseSource(const NoiseConfig& config, SimTime horizon,
              std::uint32_t num_cpus, std::uint32_t slots_per_core)
      : events_(generate_noise(config, horizon, num_cpus, slots_per_core)) {}

  [[nodiscard]] bool exhausted() const { return next_ >= events_.size(); }

  /// The next event, without consuming it. Requires !exhausted().
  [[nodiscard]] const NoiseEvent& peek() const { return events_[next_]; }

  /// Consumes and returns the next event. Requires !exhausted().
  NoiseEvent next() { return events_[next_++]; }

 private:
  std::vector<NoiseEvent> events_;
  std::size_t next_ = 0;
};

}  // namespace smtbal::os
