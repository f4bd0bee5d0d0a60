// Ablation: why the paper had to patch the kernel (§VI). Under OS noise,
// the vanilla kernel resets hardware priorities to MEDIUM on every
// interrupt entry, silently undoing any balancing; the patched kernel
// preserves them. We run MetBench's case-C assignment under increasing
// interrupt pressure on both kernels.
#include <iostream>

#include "bench_util.hpp"
#include "workloads/metbench.hpp"

using namespace smtbal;

int main() {
  bench::print_header(
      "Ablation — patched vs vanilla kernel under OS noise (paper SVI)");

  workloads::MetBenchConfig workload;
  workload.iterations = 8;
  const auto app = workloads::build_metbench(workload);
  const auto placement = mpisim::Placement::identity(4);

  TextTable table({"Kernel", "irq rate (Hz)", "exec (s)", "imbalance %",
                   "priority resets"});

  for (const double irq_hz : {0.0, 200.0, 1000.0}) {
    for (const auto flavor :
         {os::KernelFlavor::kPatched, os::KernelFlavor::kVanilla}) {
      mpisim::EngineConfig config;
      config.kernel_flavor = flavor;
      if (irq_hz > 0.0) {
        config.noise = os::NoiseConfig::silent();
        config.noise.cpu0_irq_hz = irq_hz;
        config.noise.tick_hz = 100.0;
        config.noise_horizon = 500.0;
      }
      // The paper's balanced assignment. The vanilla kernel cannot set
      // priorities 5/6 from userspace at all, so it gets the best
      // user-settable approximation (3 on the light workers).
      const bool patched = flavor == os::KernelFlavor::kPatched;
      policy::StaticPriorityPolicy policy(
          patched ? std::vector<int>{4, 6, 4, 6} : std::vector<int>{3, 4, 3, 4});

      mpisim::Engine engine(app, placement, config);
      engine.set_policy(&policy);
      const auto result = engine.run();
      table.add_row({patched ? "patched" : "vanilla",
                     TextTable::num(irq_hz, 0),
                     TextTable::num(result.exec_time, 2),
                     TextTable::pct(result.imbalance),
                     std::to_string(result.priority_resets)});
    }
  }
  std::cout << table.render();
  std::cout
      << "\nThe vanilla kernel (a) cannot install the 4/6 assignment at all\n"
         "(userspace or-nops reach only 2..4) and (b) resets even the legal\n"
         "3/4 assignment at every interrupt on CPU0 — the reset counter\n"
         "shows how often the balancing silently disappeared. The patched\n"
         "kernel keeps the assignment regardless of noise.\n";
  return 0;
}
