// Deployment-style example: you have an MPI application whose per-rank
// loads you roughly know; search placements and priorities by simulation
// before submitting the real job.
//
// The 3 x 81 candidate configurations are independent simulations;
// policy::advise runs them through the BatchRunner — same candidates,
// same winner, any number of workers.
//
//   $ ./autotune_mapping [--jobs N] [--json FILE] [load1 load2 load3 load4]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "isa/kernel.hpp"
#include "policy/advisor.hpp"
#include "runner/batch.hpp"
#include "runner/report.hpp"

using namespace smtbal;

int main(int argc, char** argv) try {
  const runner::CliOptions cli = runner::parse_cli(argc, argv);
  std::vector<double> loads{1.0, 0.3, 0.8, 0.5};
  if (cli.positional.size() == 4) {
    for (std::size_t i = 0; i < 4; ++i) {
      loads[i] = std::atof(cli.positional[i].c_str());
    }
  } else if (!cli.positional.empty()) {
    std::cerr << "usage: " << argv[0]
              << " [--jobs N] [--json FILE] [load1 load2 load3 load4]\n";
    return 1;
  }

  // Model the application: per iteration each rank computes its share and
  // everyone synchronises at a barrier.
  const isa::KernelId kernel =
      isa::KernelRegistry::instance().by_name(isa::kKernelCfd).id;
  mpisim::Application app;
  app.name = "user-app";
  app.ranks.resize(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (int i = 0; i < 6; ++i) {
      app.ranks[r].compute(kernel, 2e9 * loads[r]).barrier();
    }
  }

  std::cout << "per-rank loads:";
  for (double load : loads) std::cout << ' ' << load;
  std::cout << "\nsearching 3 placements x 3^4 priority vectors...\n\n";

  const policy::AdvisorResult search = policy::advise(
      app, {{0, 1, 2, 3}, {0, 2, 1, 3}, {0, 2, 3, 1}}, {4, 5, 6},
      runner::BatchRunner(runner::BatchOptions{.jobs = cli.jobs}));
  if (!cli.json_path.empty()) {
    runner::write_jsonl_file(search.batch, cli.json_path);
  }
  std::cerr << "[batch] " << runner::describe(search.batch) << '\n';
  const std::vector<policy::AdvisorCandidate>& candidates = search.ranked;

  const auto& best = candidates.front();
  const auto& worst = candidates.back();
  std::cout << "best:  " << policy::describe(best) << "  ("
            << best.exec_time << " s)\n";
  std::cout << "worst: " << policy::describe(worst) << "  ("
            << worst.exec_time << " s, "
            << worst.exec_time / best.exec_time << "x slower)\n\n";

  // How much of the win comes from the mapping alone? The first candidate
  // enumerated — identity mapping, every rank at the default MEDIUM (4) —
  // is the untouched reference run.
  const mpisim::RunResult& baseline = *search.batch.runs.front().result;
  std::cout << "identity mapping, default priorities: " << baseline.exec_time
            << " s\n"
            << "tuned configuration:                  " << best.exec_time
            << " s  ("
            << (1.0 - best.exec_time / baseline.exec_time) * 100.0
            << "% faster)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
