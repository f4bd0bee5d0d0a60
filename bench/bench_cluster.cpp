// Cluster bench: two-level (node x SMT-priority) balancing on a
// node-skewed MetBench-style workload (no paper counterpart — the paper
// balances inside one OpenPower 710 node; this extrapolates its priority
// machinery to a multi-node cluster, see DESIGN.md §9).
//
// Two nodes run identical heavy/light rank pairs, but node 0 carries a
// 1.6x load multiplier, so its ranks arrive last at every global
// barrier. Three schemes:
//
//   all-MEDIUM   no policy: every rank at hardware priority 4;
//   inner-only   one DynamicBalancer per node (outer level disabled) —
//                fixes the within-node heavy/light imbalance only;
//   two-level    the outer loop additionally widens the lagging node's
//                priority-gap ceiling until it catches up.
//
//   $ ./bench_cluster [--smoke] [--json FILE]
//
// --smoke shrinks the workload for CI; --json writes one
// smtbal.bench.run/3 record per scheme (per-rank records carry their
// hosting node, plus a per-node aggregate array).
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include <cmath>

#include "cluster/engine.hpp"
#include "cluster/workload.hpp"
#include "policy/repartition.hpp"
#include "policy/two_level.hpp"
#include "runner/batch.hpp"
#include "runner/report.hpp"
#include "smt/sampler.hpp"

using namespace smtbal;

namespace {

cluster::SkewedClusterConfig workload_config(bool smoke) {
  cluster::SkewedClusterConfig config;
  config.num_nodes = 2;
  config.ranks_per_node = 4;
  config.iterations = smoke ? 6 : 16;
  config.base_instructions = smoke ? 1e9 : 2e9;
  // Light enough that a priority gap of 2 on the lagging node still
  // leaves the light ranks off the critical path (Case D headroom).
  config.light_fraction = 0.1;
  config.node_scale = {1.6};
  config.stat_duration = 0.01;
  return config;
}

cluster::ClusterConfig cluster_config() {
  cluster::ClusterConfig config;
  config.num_nodes = 2;
  return config;
}

policy::TwoLevelBalancerConfig balancer_config(int max_node_boost) {
  policy::TwoLevelBalancerConfig config;
  config.inner.max_diff = 1;
  config.max_node_boost = max_node_boost;
  return config;
}

struct CaseResult {
  std::string label;
  cluster::ClusterRunResult result;
  std::vector<int> final_boost;
};

}  // namespace

int main(int argc, char** argv) try {
  const runner::CliOptions cli = runner::parse_cli(argc, argv);
  bool smoke = false;
  for (const std::string& arg : cli.positional) {
    if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "unknown argument: " << arg << '\n';
      return 2;
    }
  }

  std::cout << "Cluster balancing — node-skewed MetBench on 2 nodes "
               "(node 0 carries 1.6x load)\n\n";

  const cluster::SkewedClusterConfig workload = workload_config(smoke);
  std::vector<CaseResult> cases;
  // max_node_boost < 0 encodes "no policy at all" (the all-MEDIUM row).
  const std::vector<std::pair<std::string, int>> schemes = {
      {"all-MEDIUM", -1}, {"inner-only", 0}, {"two-level", 1}};

  // One sampler across all schemes: identical chips, so the cycle-level
  // memoisation carries over between cases.
  const cluster::ClusterConfig cluster_cfg = cluster_config();
  auto sampler = std::make_shared<smt::ThroughputSampler>(
      cluster_cfg.node.chip, cluster_cfg.node.sampler);

  for (const auto& [label, boost] : schemes) {
    cluster::SkewedCluster skew = cluster::make_skewed_cluster(workload);
    cluster::ClusterEngine engine(std::move(skew.app), skew.placement,
                                  cluster_cfg, sampler);
    std::optional<policy::TwoLevelBalancer> policy;
    if (boost >= 0) {
      policy.emplace(balancer_config(boost));
      engine.set_policy(&*policy);
    }
    CaseResult run;
    run.label = label;
    run.result = engine.run();
    if (policy.has_value()) {
      for (std::uint32_t n = 0; n < workload.num_nodes; ++n) {
        run.final_boost.push_back(policy->node_boost(n));
      }
    }
    cases.push_back(std::move(run));
  }

  std::cout << std::left << std::setw(12) << "scheme" << std::right
            << std::setw(12) << "exec (s)" << std::setw(12) << "vs MEDIUM"
            << std::setw(12) << "imbalance";
  for (std::uint32_t n = 0; n < workload.num_nodes; ++n) {
    std::cout << std::setw(14) << ("node" + std::to_string(n) + " wait");
  }
  std::cout << '\n';
  const double baseline = cases[0].result.flat.exec_time;
  for (const CaseResult& run : cases) {
    std::ostringstream speedup;
    speedup << std::fixed << std::setprecision(3)
            << baseline / run.result.flat.exec_time << 'x';
    std::cout << std::left << std::setw(12) << run.label << std::right
              << std::fixed << std::setprecision(4) << std::setw(12)
              << run.result.flat.exec_time << std::setw(12) << speedup.str()
              << std::setprecision(3) << std::setw(12)
              << run.result.flat.imbalance;
    for (const cluster::NodeStats& node : run.result.nodes) {
      std::ostringstream wait;
      wait << std::fixed << std::setprecision(3) << node.wait << 's';
      std::cout << std::setw(14) << wait.str();
    }
    std::cout << '\n';
  }

  std::cout << "\nShape checks: inner-only beats all-MEDIUM (within-node\n"
               "heavy/light imbalance); two-level also drains the lagging\n"
               "node's extra wait and finishes fastest.\n";
  for (const CaseResult& run : cases) {
    if (run.final_boost.empty()) continue;
    std::cout << run.label << " final node boosts:";
    for (const int b : run.final_boost) std::cout << ' ' << b;
    std::cout << '\n';
  }

  // --- migration corpus ------------------------------------------------------
  // Same 2-node cluster but with 4-core chips (8 seats, 4 ranks per
  // node), so cross-node migrations have landing room. Two workloads:
  // the skewed corpus above (persistent node-0 overload) and the
  // time-varying one (the heavy set hops between nodes every phase — a
  // skew priorities cannot chase). Three schemes per workload: the two
  // priorities-only baselines and the repartition balancer.
  std::cout << "\nMigration corpus — 4-core nodes (free seats), "
               "priorities-only vs repartition\n\n";

  cluster::ClusterConfig mig_cfg = cluster_config();
  mig_cfg.node.chip.num_cores = 4;
  mig_cfg.node.chip.memory.num_cores = 4;
  auto mig_sampler = std::make_shared<smt::ThroughputSampler>(
      mig_cfg.node.chip, mig_cfg.node.sampler);

  cluster::TimeVaryingClusterConfig varying;
  varying.num_nodes = 2;
  varying.ranks_per_node = 4;
  varying.iterations = smoke ? 8 : 24;
  varying.phase_length = smoke ? 4 : 8;
  varying.base_instructions = smoke ? 1e9 : 2e9;
  varying.heavy_factor = 3.0;
  varying.heavy_ranks = 2;

  struct MigRun {
    std::string label;
    cluster::ClusterRunResult result;
    std::uint64_t migrations = 0;
  };
  struct MigCase {
    std::string name;
    std::vector<MigRun> runs;
  };
  const std::vector<std::string> mig_schemes = {"inner-only", "two-level",
                                                "repartition"};
  std::vector<MigCase> mig_cases;
  for (const std::string& which : {std::string("skewed"),
                                   std::string("time-varying")}) {
    MigCase mig_case;
    mig_case.name = which;
    for (const std::string& scheme : mig_schemes) {
      cluster::SkewedCluster built =
          which == "skewed" ? cluster::make_skewed_cluster(workload)
                            : cluster::make_time_varying_cluster(varying);
      cluster::ClusterEngine engine(std::move(built.app), built.placement,
                                    mig_cfg, mig_sampler);
      std::optional<policy::TwoLevelBalancer> two_level_policy;
      std::optional<policy::RepartitionPolicy> repartition_policy;
      if (scheme == "repartition") {
        policy::RepartitionConfig rep;
        rep.threshold = 0.10;
        rep.hysteresis = 0.05;
        rep.interval = 2;
        rep.warmup_epochs = 1;
        repartition_policy.emplace(rep);
        engine.set_policy(&*repartition_policy);
      } else {
        two_level_policy.emplace(
            balancer_config(scheme == "two-level" ? 1 : 0));
        engine.set_policy(&*two_level_policy);
      }
      MigRun run;
      run.label = which + "/" + scheme;
      run.result = engine.run();
      for (const cluster::NodeStats& node : run.result.nodes) {
        run.migrations += node.migrations;
      }
      mig_case.runs.push_back(std::move(run));
    }
    mig_cases.push_back(std::move(mig_case));
  }

  double geomean_log = 0.0;
  for (const MigCase& mig_case : mig_cases) {
    std::cout << mig_case.name << ":\n";
    std::cout << std::left << std::setw(14) << "  scheme" << std::right
              << std::setw(12) << "exec (s)" << std::setw(12) << "vs inner"
              << std::setw(12) << "imbalance" << std::setw(12) << "migrations"
              << '\n';
    const double inner_exec = mig_case.runs[0].result.flat.exec_time;
    for (const MigRun& run : mig_case.runs) {
      std::ostringstream speedup;
      speedup << std::fixed << std::setprecision(3)
              << inner_exec / run.result.flat.exec_time << 'x';
      const std::string scheme = run.label.substr(run.label.find('/') + 1);
      std::cout << std::left << std::setw(14) << ("  " + scheme) << std::right
                << std::fixed << std::setprecision(4) << std::setw(12)
                << run.result.flat.exec_time << std::setw(12) << speedup.str()
                << std::setprecision(3) << std::setw(12)
                << run.result.flat.imbalance << std::setw(12)
                << run.migrations << '\n';
    }
    const double best_priorities =
        std::min(mig_case.runs[0].result.flat.exec_time,
                 mig_case.runs[1].result.flat.exec_time);
    geomean_log += std::log(best_priorities /
                            mig_case.runs[2].result.flat.exec_time);
    std::cout << '\n';
  }
  const double geomean =
      std::exp(geomean_log / static_cast<double>(mig_cases.size()));
  std::cout << "repartition vs best priorities-only: " << std::fixed
            << std::setprecision(3) << geomean << "x geomean\n";

  if (!cli.json_path.empty()) {
    std::ofstream file(cli.json_path, std::ios::trunc);
    if (!file) {
      std::cerr << "cannot open '" << cli.json_path << "' for writing\n";
      return 1;
    }
    for (std::size_t c = 0; c < cases.size(); ++c) {
      runner::RunOutcome outcome;
      outcome.label = cases[c].label;
      outcome.index = c;
      outcome.ok = true;
      outcome.result = std::move(cases[c].result.flat);
      file << runner::to_json_record(outcome, cases[c].result.node_of_rank)
           << '\n';
    }
    std::size_t index = cases.size();
    for (MigCase& mig_case : mig_cases) {
      for (MigRun& run : mig_case.runs) {
        runner::RunOutcome outcome;
        outcome.label = run.label;
        outcome.index = index++;
        outcome.ok = true;
        outcome.node_stats = std::move(run.result.nodes);
        outcome.result = std::move(run.result.flat);
        file << runner::to_json_record(outcome, run.result.node_of_rank)
             << '\n';
      }
    }
  }

  const double two_level = cases[2].result.flat.exec_time;
  if (two_level >= baseline) {
    std::cerr << "REGRESSION: two-level (" << two_level
              << " s) did not beat all-MEDIUM (" << baseline << " s)\n";
    return 1;
  }
  if (geomean < 1.10) {
    std::cerr << "REGRESSION: repartition beat the best priorities-only "
                 "scheme by only "
              << std::fixed << std::setprecision(3) << geomean
              << "x geomean (need >= 1.10x)\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
