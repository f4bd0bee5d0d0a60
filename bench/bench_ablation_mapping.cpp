// Ablation: mapping sensitivity. The paper chooses its process-to-core
// pairings by hand ("this mapping seems reasonable...", §VII-B); the
// advisor (policy::advise) enumerates (mapping x priority) combinations
// by simulation and ranks them — quantifying how much the pairing itself
// matters for BT-MZ.
#include <iostream>

#include "bench_util.hpp"
#include "policy/advisor.hpp"
#include "workloads/btmz.hpp"

using namespace smtbal;

int main() try {
  bench::print_header("Ablation — mapping and priority search (BT-MZ)");

  workloads::BtmzConfig config;
  config.iterations = 24;  // shape-identical, faster to sweep
  const auto app = workloads::build_btmz(config);

  // The three pairings of four ranks over two cores:
  //   P1P2|P3P4 (the default), P1P3|P2P4, P1P4|P2P3 (the paper's pick).
  const std::vector<std::vector<std::uint32_t>> placements{
      {0, 1, 2, 3}, {0, 2, 1, 3}, {0, 2, 3, 1}};
  const auto results =
      policy::advise(app, placements, {4, 5, 6}, runner::BatchRunner{})
          .ranked;

  std::cout << "Top 8 configurations of " << results.size() << ":\n";
  TextTable top({"#", "configuration", "exec (s)", "imbalance %"});
  for (std::size_t i = 0; i < 8 && i < results.size(); ++i) {
    top.add_row({std::to_string(i + 1), policy::describe(results[i]),
                 TextTable::num(results[i].exec_time, 2),
                 TextTable::pct(results[i].imbalance)});
  }
  std::cout << top.render();

  std::cout << "\nBottom 3 (what bad choices cost):\n";
  TextTable bottom({"#", "configuration", "exec (s)", "imbalance %"});
  for (std::size_t i = results.size() - 3; i < results.size(); ++i) {
    bottom.add_row({std::to_string(i + 1), policy::describe(results[i]),
                    TextTable::num(results[i].exec_time, 2),
                    TextTable::pct(results[i].imbalance)});
  }
  std::cout << bottom.render();

  // Best per placement: how much does the pairing matter, given the best
  // priorities for each?
  std::cout << "\nBest configuration per mapping:\n";
  TextTable per_placement({"mapping (linear cpus)", "best exec (s)",
                           "best configuration"});
  for (const auto& placement : placements) {
    const policy::AdvisorCandidate* best = nullptr;
    for (const auto& candidate : results) {
      bool matches = true;
      for (std::size_t r = 0; r < placement.size(); ++r) {
        if (candidate.placement.cpu_of_rank[r].linear(2) != placement[r]) {
          matches = false;
          break;
        }
      }
      if (matches && (best == nullptr || candidate.exec_time < best->exec_time)) {
        best = &candidate;
      }
    }
    std::string key = "[";
    for (std::size_t r = 0; r < placement.size(); ++r) {
      key += (r ? "," : "") + std::to_string(placement[r]);
    }
    key += "]";
    per_placement.add_row({key, TextTable::num(best->exec_time, 2),
                           policy::describe(*best)});
  }
  std::cout << per_placement.render();
  std::cout << "\nThe paper's pairing (P1,P4 together: mapping [0,2,3,1])\n"
               "dominates: the bottleneck must share its core with the\n"
               "lightest rank so it can be favored without creating a new\n"
               "bottleneck (paper SVII-B).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
