// Priority balancing on an SMT4 chip: eight ranks on a 2-core x
// 4-context node (threads_per_core = 4), one overloaded rank per core,
// rebalanced through the generalized weighted decode arbiter. The POWER5
// paper stops at 2-way cores; this is the N-way extrapolation described
// in DESIGN.md §8.
//
//   $ ./smt4_balancing
#include <iostream>
#include <memory>

#include "isa/kernel.hpp"
#include "mpisim/engine.hpp"
#include "policy/static_priority.hpp"
#include "trace/gantt.hpp"

using namespace smtbal;

int main() {
  // 1. An imbalanced app: ranks 1 and 5 (one per core) carry four times
  //    the work of their three core-mates.
  const isa::KernelId kernel =
      isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;
  mpisim::Application app;
  app.name = "smt4-balancing";
  app.ranks.resize(8);
  for (std::size_t r = 0; r < app.size(); ++r) {
    const double work = (r == 1 || r == 5) ? 4e9 : 1e9;
    for (int iteration = 0; iteration < 10; ++iteration) {
      app.ranks[r].compute(kernel, work).barrier();
    }
  }

  // 2. An SMT4 chip: the paper's node with threads_per_core raised to 4.
  //    Rank i pins to CPU i, so ranks 0-3 share core 1 and 4-7 core 2.
  mpisim::EngineConfig config;
  config.chip.core.threads_per_core = 4;
  const auto placement =
      mpisim::Placement::identity(app.size(), config.chip.threads_per_core());
  const auto sampler =
      std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);

  // 3. Reference run: every context at the default MEDIUM priority — the
  //    heavy ranks get 1/4 of their core's decode slice and hold
  //    everyone at the barrier.
  mpisim::Engine reference(app, placement, config, sampler);
  const auto before = reference.run();
  std::cout << "all MEDIUM:            exec " << before.exec_time
            << " s, imbalance " << before.imbalance * 100 << " %\n";

  // 4. Balanced run: HIGH (6) for the heavy ranks. In the weighted N-way
  //    slice the heavy context owns 7 of 10 decode cycles and the three
  //    light core-mates 1 each.
  policy::StaticPriorityPolicy policy({4, 6, 4, 4, 4, 6, 4, 4});
  mpisim::Engine balanced(app, placement, config, sampler);
  balanced.set_policy(&policy);
  const auto after = balanced.run();
  std::cout << "heavy ranks at HIGH:   exec " << after.exec_time
            << " s, imbalance " << after.imbalance * 100 << " %\n";
  std::cout << "speedup: " << before.exec_time / after.exec_time << "x\n\n";

  // 5. The traces (dark '#' = computing, '-' = waiting in MPI).
  std::cout << "before:\n"
            << trace::render_gantt(before.trace, {.width = 72})
            << "\nafter:\n"
            << trace::render_gantt(after.trace, {.width = 72});
  return 0;
}
