// Shared scaffolding for the paper-reproduction benchmark binaries.
//
// Each bench_table*/bench_fig* binary regenerates one table or figure of
// the paper: it runs the workload under every experiment case, prints the
// measured characterisation table in the paper's layout, an ASCII Gantt
// of each case (the stand-in for the PARAVER screenshots), and a
// paper-vs-measured comparison of the headline numbers.
#pragma once

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "policy/static_priority.hpp"
#include "runner/batch.hpp"
#include "runner/report.hpp"
#include "trace/gantt.hpp"
#include "trace/report.hpp"
#include "workloads/cases.hpp"

namespace smtbal::bench {

/// One reproduced experiment case, paired with the paper's numbers.
struct CaseOutcome {
  trace::CaseReport report;
  mpisim::RunResult result;
};

struct PaperReference {
  std::string label;
  double imbalance_pct;  ///< paper-reported imbalance (percent)
  double exec_seconds;   ///< paper-reported execution time
};

/// Builds the RunSpec for one paper case (static priorities).
inline runner::RunSpec paper_case_spec(const mpisim::Application& app,
                                       const workloads::PaperCase& c,
                                       mpisim::EngineConfig config = {}) {
  runner::RunSpec spec;
  spec.label = c.label;
  spec.app = app;
  spec.placement = c.placement;
  spec.config = std::move(config);
  spec.make_policy = [priorities = c.priorities] {
    return std::unique_ptr<mpisim::BalancePolicy>(
        new policy::StaticPriorityPolicy(priorities));
  };
  return spec;
}

/// Report metadata for one spec (the columns CaseReport needs beyond the
/// trace itself).
struct SpecMeta {
  std::vector<int> cores;       ///< 1-based core number per rank
  std::vector<int> priorities;  ///< hardware priority per rank
};

/// Runs `specs` through a BatchRunner (`--jobs` workers), writes the JSONL
/// records if `--json` was given, and converts the outcomes into case
/// reports. The batch summary goes to stderr so stdout stays byte-identical
/// for any worker count. Throws if any run failed.
inline std::vector<CaseOutcome> run_case_specs(std::vector<runner::RunSpec> specs,
                                               const std::vector<SpecMeta>& meta,
                                               const runner::CliOptions& cli) {
  runner::BatchRunner batch_runner(runner::BatchOptions{.jobs = cli.jobs});
  runner::BatchResult batch = batch_runner.run(specs);
  if (!cli.json_path.empty()) runner::write_jsonl_file(batch, cli.json_path);
  std::cerr << "[batch] " << runner::describe(batch) << '\n';

  std::vector<CaseOutcome> outcomes;
  outcomes.reserve(batch.runs.size());
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    runner::RunOutcome& out = batch.runs[i];
    if (!out.ok) {
      throw SimulationError("case " + out.label + " failed: " + out.error);
    }
    trace::CaseReport report = trace::CaseReport::from_trace(
        out.label, out.result->trace, meta[i].cores, meta[i].priorities);
    outcomes.push_back(CaseOutcome{std::move(report), std::move(*out.result)});
  }
  return outcomes;
}

/// Runs every static-priority case of a paper workload through the batch
/// runner (run_case_specs).
inline std::vector<CaseOutcome> run_paper_cases_batch(
    const mpisim::Application& app,
    const std::vector<workloads::PaperCase>& cases,
    const runner::CliOptions& cli) {
  std::vector<runner::RunSpec> specs;
  std::vector<SpecMeta> meta;
  specs.reserve(cases.size());
  meta.reserve(cases.size());
  for (const workloads::PaperCase& c : cases) {
    specs.push_back(paper_case_spec(app, c));
    meta.push_back(SpecMeta{c.cores(), c.priorities});
  }
  return run_case_specs(std::move(specs), meta, cli);
}

/// Prints the measured characterisation table (paper layout).
inline void print_characterization(const std::vector<CaseOutcome>& outcomes) {
  std::vector<trace::CaseReport> reports;
  for (const CaseOutcome& outcome : outcomes) reports.push_back(outcome.report);
  std::cout << trace::characterization_table(reports).render();
}

/// Prints one ASCII Gantt per case (the figure reproduction).
inline void print_gantts(const std::vector<CaseOutcome>& outcomes,
                         std::size_t width = 96) {
  for (const CaseOutcome& outcome : outcomes) {
    std::cout << "\nCase " << outcome.report.label << " ("
              << TextTable::num(outcome.report.exec_time, 2) << " s):\n"
              << trace::render_gantt(
                     outcome.result.trace,
                     {.width = width, .show_legend = false, .show_ruler = true});
  }
  std::cout << "   [#] compute  [-] sync  [*] comm  [+] stat  [.] init  "
               "[!] preempted\n";
}

/// Paper-vs-measured comparison: shape columns (relative exec time and
/// imbalance), normalised to the reference case.
inline void print_paper_comparison(const std::vector<CaseOutcome>& outcomes,
                                   const std::vector<PaperReference>& paper,
                                   const std::string& reference_label = "A") {
  std::map<std::string, const CaseOutcome*> by_label;
  for (const CaseOutcome& outcome : outcomes) {
    by_label[outcome.report.label] = &outcome;
  }
  double paper_ref = 0.0;
  for (const PaperReference& row : paper) {
    if (row.label == reference_label) paper_ref = row.exec_seconds;
  }
  const double measured_ref = by_label.at(reference_label)->report.exec_time;

  TextTable table({"Case", "paper imb%", "measured imb%", "paper exec (rel)",
                   "measured exec (rel)"});
  for (const PaperReference& row : paper) {
    const auto it = by_label.find(row.label);
    if (it == by_label.end()) continue;
    table.add_row({row.label, TextTable::num(row.imbalance_pct, 2),
                   TextTable::pct(it->second->report.imbalance),
                   TextTable::num(row.exec_seconds / paper_ref, 3),
                   TextTable::num(it->second->report.exec_time / measured_ref, 3)});
  }
  std::cout << "\nPaper vs measured (exec times relative to case "
            << reference_label << "):\n"
            << table.render();
}

inline void print_header(const std::string& title) {
  std::cout << std::string(78, '=') << '\n'
            << title << '\n'
            << std::string(78, '=') << '\n';
}

}  // namespace smtbal::bench
