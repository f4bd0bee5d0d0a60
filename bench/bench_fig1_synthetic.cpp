// Figure 1 reproduction: the synthetic motivating example — four
// processes, two per core; P1 computes ~2.5x longer than the rest. Part
// (a) runs everything at the default priority; part (b) gives P1 one
// extra priority level, shrinking its execution time and the whole
// application's.
//
//   $ ./bench_fig1_synthetic [--jobs N] [--json FILE]
#include <iostream>

#include "bench_util.hpp"
#include "workloads/fig1.hpp"

using namespace smtbal;

int main(int argc, char** argv) try {
  const auto cli = runner::parse_cli(argc, argv);
  bench::print_header(
      "Figure 1 — Expected effect of the proposed solution (synthetic)");

  const auto app = workloads::build_fig1(workloads::Fig1Config{});
  const auto outcomes =
      bench::run_paper_cases_batch(app, workloads::fig1_cases(), cli);

  bench::print_characterization(outcomes);
  bench::print_gantts(outcomes);

  std::cout << '\n'
            << trace::summary_line(outcomes[1].report, outcomes[0].report)
            << '\n';
  std::cout << "P1 got more hardware resources; its core-mate P2 slowed down\n"
               "inside its idle window, and the application finished earlier\n"
               "(compare Figures 1(a) and 1(b) of the paper).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
