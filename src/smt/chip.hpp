// The full POWER5-like chip: N-way SMT cores over a shared L2/L3 hierarchy
// (two 2-way cores by default, matching the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "mem/hierarchy.hpp"
#include "smt/core.hpp"

namespace smtbal::smt {

struct ChipConfig {
  std::uint32_t num_cores = 2;
  /// Core clock, used to convert IPC into instructions/second.
  double frequency_ghz = 1.65;  // POWER5 as in the paper's OpenPower 710
  CoreConfig core;
  mem::HierarchyConfig memory;

  void validate() const;
  [[nodiscard]] bool operator==(const ChipConfig&) const = default;

  [[nodiscard]] std::uint32_t threads_per_core() const {
    return core.threads_per_core;
  }
  [[nodiscard]] std::uint32_t num_contexts() const {
    return num_cores * core.threads_per_core;
  }
  [[nodiscard]] double frequency_hz() const { return frequency_ghz * 1e9; }

  /// Maps a linear CPU number (OS view) to (core, slot), core-major.
  [[nodiscard]] CpuId cpu(std::uint32_t linear) const;
};

class Chip {
 public:
  explicit Chip(ChipConfig config);

  [[nodiscard]] Core& core(CoreId id);
  [[nodiscard]] const Core& core(CoreId id) const;
  [[nodiscard]] mem::Hierarchy& memory() { return *hierarchy_; }
  [[nodiscard]] const ChipConfig& config() const { return config_; }

  /// Convenience accessors addressing a context by CpuId.
  void bind_stream(CpuId cpu, isa::StreamGen* stream);
  void set_priority(CpuId cpu, HwPriority priority);
  [[nodiscard]] HwPriority priority(CpuId cpu) const;
  [[nodiscard]] const ThreadPerf& perf(CpuId cpu) const;

  /// Advances every core by one cycle (cores share the clock).
  void step();
  /// step() `cycles` times. Idle cores (no bound stream) are not stepped:
  /// they touch no shared state, so only their clocks advance.
  void run(Cycle cycles);

  /// Fresh measurement state: drains pipelines, flushes caches, zeroes
  /// performance counters. Streams and priorities are preserved.
  void reset();

 private:
  ChipConfig config_;
  std::unique_ptr<mem::Hierarchy> hierarchy_;
  std::vector<Core> cores_;
};

}  // namespace smtbal::smt
