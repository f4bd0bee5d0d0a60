#include "isa/kernel.hpp"

#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "isa/stream.hpp"

namespace smtbal::isa {

void KernelParams::validate() const {
  double sum = 0.0;
  for (double f : mix) {
    SMTBAL_REQUIRE(f >= 0.0, "kernel mix fractions must be non-negative");
    sum += f;
  }
  SMTBAL_REQUIRE(std::abs(sum - 1.0) < 1e-6, "kernel mix must sum to 1");
  SMTBAL_REQUIRE(mean_dep_dist == 0.0 ||
                     (mean_dep_dist >= 1.0 && mean_dep_dist <= 1e9),
                 "mean_dep_dist must be 0 or in [1, 1e9]");
  SMTBAL_REQUIRE(dep_fraction >= 0.0 && dep_fraction <= 1.0,
                 "dep_fraction must be in [0,1]");
  SMTBAL_REQUIRE(working_set_bytes > 0, "working set must be non-empty");
  SMTBAL_REQUIRE(stride_bytes > 0, "stride must be positive");
  SMTBAL_REQUIRE(random_access_fraction >= 0.0 && random_access_fraction <= 1.0,
                 "random_access_fraction must be in [0,1]");
  SMTBAL_REQUIRE(branch_mispredict_rate >= 0.0 && branch_mispredict_rate <= 1.0,
                 "branch_mispredict_rate must be in [0,1]");
  SMTBAL_REQUIRE(fetch_gap_fraction >= 0.0 && fetch_gap_fraction < 1.0,
                 "fetch_gap_fraction must be in [0,1)");
}

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry registry = [] {
    KernelRegistry r;
    for (const KernelParams& params : builtin_kernels()) {
      r.register_kernel(params);
    }
    return r;
  }();
  return registry;
}

KernelId KernelRegistry::register_kernel(const KernelParams& params) {
  params.validate();
  for (const Kernel& existing : kernels_) {
    if (existing.params.name == params.name) {
      SMTBAL_REQUIRE(existing.params.mix == params.mix &&
                         existing.params.working_set_bytes ==
                             params.working_set_bytes &&
                         existing.params.mean_dep_dist == params.mean_dep_dist,
                     "kernel name already registered with different params: " +
                         params.name);
      return existing.id;
    }
  }
  const auto id = static_cast<KernelId>(kernels_.size());
  kernels_.push_back(Kernel{id, params, DrawTables::build(params)});
  return id;
}

const Kernel& KernelRegistry::get(KernelId id) const {
  SMTBAL_REQUIRE(id < kernels_.size(), "unknown kernel id");
  return kernels_[id];
}

const Kernel& KernelRegistry::by_name(std::string_view name) const {
  for (const Kernel& kernel : kernels_) {
    if (kernel.params.name == name) return kernel;
  }
  throw InvalidArgument("unknown kernel name: " + std::string(name));
}

bool KernelRegistry::contains(std::string_view name) const {
  for (const Kernel& kernel : kernels_) {
    if (kernel.params.name == name) return true;
  }
  return false;
}

std::vector<KernelParams> builtin_kernels() {
  std::vector<KernelParams> kernels;

  // The application-shaped kernels below share a calibrated profile:
  // dependency-chain-bound at solo IPC ~1.3-2.0 (below the solo dispatch
  // bandwidth), cache-resident enough that equal-priority co-scheduling
  // keeps ~0.65x solo per thread. Against the default CoreConfig this
  // reproduces the POWER5 response measured in the paper: total SMT
  // throughput ~1.3x single-thread, the starved thread at priority
  // difference d running at ~{0.5, 0.3, 0.2}x its equal-priority rate for
  // d = {1, 2, 3}, and the favored thread saturating near its solo rate.

  {
    // Balanced compute representative of tuned HPC inner loops. This is
    // the calibration reference and the MetBench worker load.
    KernelParams k;
    k.name = std::string(kKernelHpcMixed);
    k.mix = {0.30, 0.40, 0.20, 0.05, 0.05};
    k.dep_fraction = 0.95;
    k.mean_dep_dist = 2.4;
    k.working_set_bytes = 16 * 1024;
    k.stride_bytes = 16;
    k.branch_mispredict_rate = 0.003;
    k.fetch_gap_fraction = 0.05;
    kernels.push_back(k);
  }
  {
    // Dense FP arithmetic with long latency chains: stresses the FPU
    // pipelines; the least decode-hungry load.
    KernelParams k;
    k.name = std::string(kKernelFpuStress);
    k.mix = {0.15, 0.60, 0.15, 0.05, 0.05};
    k.dep_fraction = 0.95;
    k.mean_dep_dist = 2.5;
    k.working_set_bytes = 16 * 1024;
    k.stride_bytes = 8;
    k.branch_mispredict_rate = 0.002;
    k.fetch_gap_fraction = 0.04;
    kernels.push_back(k);
  }
  {
    // Integer-dominated with high ILP: decode-bandwidth hungry; the most
    // sensitive load to decode-slot starvation.
    KernelParams k;
    k.name = std::string(kKernelIntStress);
    k.mix = {0.60, 0.00, 0.20, 0.10, 0.10};
    k.dep_fraction = 0.50;
    k.mean_dep_dist = 8.0;
    k.working_set_bytes = 8 * 1024;
    k.stride_bytes = 8;
    k.branch_mispredict_rate = 0.002;
    k.fetch_gap_fraction = 0.03;
    kernels.push_back(k);
  }
  {
    // Working set larger than L1D but fitting in L2: every few accesses
    // miss L1 and hit the shared L2.
    KernelParams k;
    k.name = std::string(kKernelL2Stress);
    k.mix = {0.25, 0.10, 0.45, 0.10, 0.10};
    k.dep_fraction = 0.60;
    k.mean_dep_dist = 6.0;
    k.working_set_bytes = 512 * 1024;  // > 32 KiB L1D, < 2 MiB L2
    k.stride_bytes = 128;              // new cache line each access
    k.random_access_fraction = 0.10;
    k.branch_mispredict_rate = 0.005;
    k.fetch_gap_fraction = 0.05;
    kernels.push_back(k);
  }
  {
    // Streams through a working set far beyond L2/L3: main-memory bound.
    KernelParams k;
    k.name = std::string(kKernelMemStress);
    k.mix = {0.20, 0.10, 0.50, 0.10, 0.10};
    k.dep_fraction = 0.50;
    k.mean_dep_dist = 6.0;
    k.working_set_bytes = 256ULL * 1024 * 1024;
    k.stride_bytes = 128;
    k.random_access_fraction = 0.50;
    k.branch_mispredict_rate = 0.005;
    k.fetch_gap_fraction = 0.05;
    kernels.push_back(k);
  }
  {
    // Branch-heavy with a high mispredict rate: stresses the front-end
    // redirect path, wastes decode slots.
    KernelParams k;
    k.name = std::string(kKernelBranchStress);
    k.mix = {0.45, 0.00, 0.20, 0.05, 0.30};
    k.dep_fraction = 0.50;
    k.mean_dep_dist = 6.0;
    k.working_set_bytes = 8 * 1024;
    k.branch_mispredict_rate = 0.08;
    k.fetch_gap_fraction = 0.05;
    kernels.push_back(k);
  }
  {
    // CFD stencil solver shape (BT-MZ): FP-dominated chains with regular
    // strided memory traffic that spills past L1.
    KernelParams k;
    k.name = std::string(kKernelCfd);
    k.mix = {0.25, 0.40, 0.22, 0.07, 0.06};
    k.dep_fraction = 0.97;
    k.mean_dep_dist = 2.0;
    k.working_set_bytes = 16 * 1024;
    k.stride_bytes = 32;
    k.random_access_fraction = 0.01;
    k.branch_mispredict_rate = 0.003;
    k.fetch_gap_fraction = 0.06;
    kernels.push_back(k);
  }
  {
    // Density-functional SCF iteration shape (SIESTA): dense linear
    // algebra blocks with sparse scatter/gather phases.
    KernelParams k;
    // SIESTA's sparse scatter/gather and irregular control flow give it a
    // front-end-limited profile: frequent fetch bubbles (icache/TLB
    // pressure) that donate decode slots to the core-mate. This makes a
    // priority-1 gap almost free for the starved rank (the paper's case C
    // wins) while a gap of 2 bites (case D loses).
    k.name = std::string(kKernelDft);
    k.mix = {0.25, 0.38, 0.22, 0.07, 0.08};
    k.dep_fraction = 0.97;
    k.mean_dep_dist = 1.5;
    k.fpu_latency = 8;
    k.working_set_bytes = 12 * 1024;
    k.stride_bytes = 24;
    k.random_access_fraction = 0.02;
    k.branch_mispredict_rate = 0.005;
    k.fetch_gap_fraction = 0.35;
    kernels.push_back(k);
  }
  {
    // MPI busy-wait progress loop: short loads of a flag plus a predicted
    // branch, all L1-resident. High decode demand, trivial backend use —
    // exactly why a spinning rank steals decode slots from its core-mate.
    KernelParams k;
    k.name = std::string(kKernelSpinWait);
    k.mix = {0.40, 0.00, 0.35, 0.00, 0.25};
    k.dep_fraction = 0.30;
    k.mean_dep_dist = 4.0;
    k.working_set_bytes = 256;
    k.stride_bytes = 8;
    k.branch_mispredict_rate = 0.001;
    k.fetch_gap_fraction = 0.0;  // a spin loop always has instructions
    kernels.push_back(k);
  }

  return kernels;
}

}  // namespace smtbal::isa
