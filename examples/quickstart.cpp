// Quickstart: simulate an imbalanced 4-rank MPI application on the
// POWER5-like node, then fix it with a static hardware-priority
// assignment — the paper's core idea in ~50 lines.
//
//   $ ./quickstart
#include <iostream>
#include <memory>

#include "isa/kernel.hpp"
#include "mpisim/engine.hpp"
#include "policy/static_priority.hpp"
#include "trace/gantt.hpp"

using namespace smtbal;

int main() {
  // 1. Describe the application: four ranks, each computing then meeting
  //    at a barrier, ten times. Rank 1 and rank 3 (one per core) carry
  //    five times the work of their core-mates.
  const isa::KernelId kernel =
      isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;
  mpisim::Application app;
  app.name = "quickstart";
  app.ranks.resize(4);
  for (std::size_t r = 0; r < app.size(); ++r) {
    const double work = (r % 2 == 1) ? 5e9 : 1e9;
    for (int iteration = 0; iteration < 10; ++iteration) {
      app.ranks[r].compute(kernel, work).barrier();
    }
  }

  // 2. Pin rank i to CPU i (ranks 0,1 share core 1; ranks 2,3 share
  //    core 2). Both runs share one throughput sampler, so each distinct
  //    chip load is cycle-simulated once.
  const auto placement = mpisim::Placement::identity(app.size());
  const mpisim::EngineConfig config;  // the paper's POWER5 node
  const auto sampler =
      std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);

  // 3. Reference run: every context at the default MEDIUM priority.
  mpisim::Engine reference(app, placement, config, sampler);
  const auto before = reference.run();
  std::cout << "default priorities:  exec " << before.exec_time
            << " s, imbalance " << before.imbalance * 100 << " %\n";

  // 4. Balanced run: give the busy ranks more decode slots through the
  //    patched kernel's /proc/<pid>/hmt_priority interface.
  policy::StaticPriorityPolicy policy({4, 6, 4, 6});
  mpisim::Engine balanced(app, placement, config, sampler);
  balanced.set_policy(&policy);
  const auto after = balanced.run();
  std::cout << "priorities {4,6,4,6}: exec " << after.exec_time
            << " s, imbalance " << after.imbalance * 100 << " %\n";
  std::cout << "speedup: " << before.exec_time / after.exec_time << "x\n\n";

  // 5. Look at the traces (dark '#' = computing, '-' = waiting in MPI).
  std::cout << "before:\n"
            << trace::render_gantt(before.trace, {.width = 72})
            << "\nafter:\n"
            << trace::render_gantt(after.trace, {.width = 72});
  return 0;
}
