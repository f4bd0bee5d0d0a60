// Deterministic synthetic instruction-stream generator.
//
// Given a Kernel and a seed, StreamGen produces an endless, reproducible
// sequence of MicroOps matching the kernel's statistical description. Two
// generators with the same (kernel, seed) produce identical streams, which
// makes every experiment in the benchmark harness exactly repeatable.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "isa/instr.hpp"
#include "isa/kernel.hpp"

namespace smtbal::isa {

/// A byte range [base, base + bytes) of the simulated address space. The
/// end may wrap past 2^64: addresses are computed modulo 2^64.
struct AddressRange {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
};

class StreamGen {
 public:
  StreamGen(const Kernel& kernel, std::uint64_t seed);

  /// Every address the loads and stores of StreamGen(kernel, seed) can
  /// touch: [base, base + working_set) of that stream's address-space
  /// slice, or an empty range when the kernel issues no memory ops. A pure
  /// function of (kernel, seed), so callers can reason about a stream's
  /// cache footprint without generating it.
  [[nodiscard]] static AddressRange footprint(const Kernel& kernel,
                                              std::uint64_t seed);

  /// Produces the next micro-op of the stream.
  [[nodiscard]] MicroOp next();

  [[nodiscard]] KernelId kernel_id() const { return kernel_id_; }
  [[nodiscard]] const KernelParams& params() const { return params_; }
  [[nodiscard]] InstrCount generated() const { return generated_; }

 private:
  /// Base of the address-space slice owned by the stream seeded `seed`.
  [[nodiscard]] static std::uint64_t slice_base(std::uint64_t seed);

  [[nodiscard]] OpClass pick_class();
  [[nodiscard]] std::uint64_t next_address();
  [[nodiscard]] std::uint16_t pick_dep_dist();

  KernelId kernel_id_;
  KernelParams params_;
  Rng rng_;
  std::uint64_t cursor_ = 0;   // current position in the working set
  std::uint64_t base_ = 0;     // base address (distinct per stream)
  InstrCount generated_ = 0;
  // Cumulative mix thresholds for class selection.
  double cum_mix_[kNumOpClasses] = {};
  void build_dep_table();

  // Per-op-constant factors hoisted out of the generation hot path; both
  // reproduce the original per-call expressions bit for bit.
  double log_one_minus_p_ = 0.0;  // log(1 - 1/mean_dep_dist)
  bool stride_fits_ = false;      // stride < working set: subtract, not mod
  // Exact u-thresholds of the geometric quantile: dep_thresh_[k] is the
  // largest double u with ceil(log(u)/log(1-p)) clamped to [1,64] >= k,
  // found at construction by probing that very expression, so the runtime
  // comparison scan returns bit-identical distances without calling log.
  bool dep_table_valid_ = false;
  double dep_thresh_[65] = {};
};

}  // namespace smtbal::isa
