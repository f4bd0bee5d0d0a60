// Kernel parameterisation and registry.
//
// A Kernel describes the statistical shape of an instruction stream: the
// op-class mix, instruction-level parallelism (dependency distances),
// memory footprint/stride and branch behaviour. MetBench's "loads"
// (paper §VII-A: FPU, L2 cache, branch predictor, ... stressors) are
// instances of this, as are the compute kernels of the BT-MZ and SIESTA
// workload models and the MPI busy-wait loop (SPIN_WAIT).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "isa/instr.hpp"

namespace smtbal::isa {

/// Opaque id for an interned kernel; stable within a process run. Used as
/// part of the throughput-sampler memoisation key.
using KernelId = std::uint32_t;

/// Statistical description of an instruction stream.
struct KernelParams {
  std::string name = "unnamed";

  /// Op-class mix; entries must be non-negative and sum to ~1.
  /// Order follows OpClass: FXU, FPU, LD, ST, BR.
  std::array<double, kNumOpClasses> mix{0.5, 0.0, 0.25, 0.1, 0.15};

  /// Mean register-dependency distance (geometric, clamped to [1, 64]).
  /// Larger = more ILP. 0 disables dependencies; else it is in [1, 1e9].
  double mean_dep_dist = 8.0;

  /// Fraction of ops that carry a dependency at all.
  double dep_fraction = 0.5;

  /// FPU execution latency (POWER5 FPU pipeline ~6 cycles).
  std::uint8_t fpu_latency = 6;

  /// FXU execution latency.
  std::uint8_t fxu_latency = 1;

  /// Data working-set size in bytes; address stream wraps around it.
  std::uint64_t working_set_bytes = 16 * 1024;

  /// Access stride in bytes (sequential = line-friendly; >= line size
  /// defeats spatial locality).
  std::uint64_t stride_bytes = 8;

  /// Fraction of memory accesses that jump to a random location in the
  /// working set instead of following the stride (pointer-chasing-ness).
  double random_access_fraction = 0.0;

  /// Probability a branch is mispredicted by the front-end.
  double branch_mispredict_rate = 0.01;

  /// Probability that the thread's fetch buffer is empty in a given cycle
  /// (instruction-cache misses, taken-branch fetch redirects, ...). A
  /// fetch-empty cycle surrenders the thread's decode slot to its
  /// core-mate — this is where SMT's throughput gain comes from.
  double fetch_gap_fraction = 0.0;

  /// Sanity-checks field values; throws InvalidArgument on bad input.
  void validate() const;
};

struct DrawTables;

/// An interned kernel: params plus registry id, and the draw tables its
/// streams share (built once, at registration).
struct Kernel {
  KernelId id = 0;
  KernelParams params;
  std::shared_ptr<const DrawTables> draw;

  [[nodiscard]] std::string_view name() const { return params.name; }
};

/// Process-wide kernel registry. Interning gives cheap ids for sampler
/// memoisation and lets workloads refer to kernels by name.
class KernelRegistry {
 public:
  /// The global registry, pre-populated with the builtin kernels below.
  static KernelRegistry& instance();

  /// Interns a kernel; returns its id. Re-registering an identical name
  /// returns the existing id if params match, throws otherwise.
  KernelId register_kernel(const KernelParams& params);

  [[nodiscard]] const Kernel& get(KernelId id) const;
  [[nodiscard]] const Kernel& by_name(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return kernels_.size(); }
  [[nodiscard]] const std::vector<Kernel>& all() const { return kernels_; }

 private:
  std::vector<Kernel> kernels_;
};

// --- Builtin kernels -------------------------------------------------------
// Names of the kernels pre-registered in KernelRegistry::instance().
// MetBench-style stressors:
inline constexpr std::string_view kKernelFpuStress = "fpu_stress";
inline constexpr std::string_view kKernelIntStress = "int_stress";
inline constexpr std::string_view kKernelL2Stress = "l2_stress";
inline constexpr std::string_view kKernelMemStress = "mem_stress";
inline constexpr std::string_view kKernelBranchStress = "branch_stress";
// Application-shaped compute kernels:
inline constexpr std::string_view kKernelHpcMixed = "hpc_mixed";
inline constexpr std::string_view kKernelCfd = "cfd_solver";
inline constexpr std::string_view kKernelDft = "dft_scf";
// MPI busy-wait progress loop (what a rank runs while blocked in MPI):
inline constexpr std::string_view kKernelSpinWait = "spin_wait";

/// Builds the builtin kernel set (exposed for tests).
[[nodiscard]] std::vector<KernelParams> builtin_kernels();

}  // namespace smtbal::isa
