// Policy tournament: every registered balancing policy against a corpus
// of scenarios, ranked by geometric-mean speedup over the no-policy
// baseline.
//
// The corpus mixes the paper's workload cases (MetBench, BT-MZ, SIESTA,
// Fig. 1, the SMT4 extrapolation — all on their reference mapping, every
// rank at the kernel-default MEDIUM), a deliberately mis-seated MetBench
// (both heavy workers sharing one core — the situation priorities alone
// cannot repair), simcheck's ScenarioSpec fuzz scenarios (flat and
// multi-node), and the skewed-cluster bench workload. Every entrant runs
// every scenario through runner::BatchRunner, so results are
// byte-identical for any --jobs value; the league table JSONL (schema
// smtbal.tournament/1) is therefore deterministic and diffable once its
// final smtbal.bench.batch trailer (sampler/cache counters, the one
// scheduling-dependent line) is dropped.
//
//   $ ./tournament [--smoke] [--jobs N] [--json FILE] [--cache-capacity N]
//                  [--policies a,b,c] [--seed-base N] [--list-policies]
//                  [--list-scenarios]
//
//   --smoke          small corpus / short runs (the CI lane)
//   --list-scenarios print the corpus scenario names (honours --smoke /
//                    --seed-base) and exit
//   --policies LIST  comma-separated entrant specs (default: "none" plus
//                    every registered policy with default config);
//                    unknown names fail with a did-you-mean suggestion
//   --seed-base N    base seed for the fuzzed scenarios (default 4200)
//   --json FILE      write the smtbal.tournament/1 league-table JSONL
//   --list-policies  print the registry (name, summary, config schema)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/workload.hpp"
#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "policy/registry.hpp"
#include "runner/batch.hpp"
#include "runner/report.hpp"
#include "simcheck/scenario.hpp"
#include "workloads/btmz.hpp"
#include "workloads/cases.hpp"
#include "workloads/drift.hpp"
#include "workloads/fig1.hpp"
#include "workloads/master_worker.hpp"
#include "workloads/metbench.hpp"
#include "workloads/siesta.hpp"
#include "workloads/stencil.hpp"

using namespace smtbal;

namespace {

using jsonl::json_escape;
using jsonl::json_num;

struct ScenarioData {
  std::string name;
  mpisim::Application app;
  mpisim::Placement placement;
  mpisim::EngineConfig config{};
  std::optional<cluster::ClusterPlacement> cluster_placement{};
  std::optional<cluster::ClusterConfig> cluster_config{};
};

std::vector<std::shared_ptr<ScenarioData>> build_corpus(bool smoke,
                                                        std::uint64_t seed_base) {
  std::vector<std::shared_ptr<ScenarioData>> corpus;
  auto add = [&corpus](ScenarioData data) {
    corpus.push_back(std::make_shared<ScenarioData>(std::move(data)));
  };

  // Paper workloads on their reference (case A) seating, no static
  // priorities: the policies earn their keep from the kernel default.
  {
    workloads::MetBenchConfig config;
    if (smoke) config.iterations = 3;
    add({"paper/metbench-A", workloads::build_metbench(config),
         workloads::metbench_cases().front().placement});
    // The mis-seated variant: both heavy workers (P2, P4) share core 1.
    // A priority gap only redistributes that core's decode slots between
    // two heavyweights; only a placement move can fix the seating.
    add({"paper/metbench-misseated", workloads::build_metbench(config),
         mpisim::Placement::from_linear({2, 0, 3, 1})});
  }
  if (!smoke) {
    add({"paper/btmz-A", workloads::build_btmz({}),
         workloads::btmz_cases().front().placement});
    add({"paper/siesta-A", workloads::build_siesta({}),
         workloads::siesta_cases().front().placement});
    add({"paper/fig1-ref", workloads::build_fig1({}),
         workloads::fig1_cases().front().placement});
    workloads::MetBenchConfig smt4;
    smt4.num_ranks = 8;
    smt4.heavy = {false, true, false, false, false, true, false, false};
    smt4.light_fraction = 0.25;
    ScenarioData data{"paper/smt4-A", workloads::build_metbench(smt4),
                      workloads::smt4_cases().front().placement};
    data.config.chip.core.threads_per_core = 4;
    add(std::move(data));
  }

  // Fuzzed flat scenarios (the simcheck generator, patched kernel so the
  // full 1..6 priority band is actuable).
  const std::size_t flat_fuzz = smoke ? 2 : 10;
  for (std::size_t i = 0; i < flat_fuzz; ++i) {
    simcheck::ScenarioSpec spec = simcheck::random_flat_spec(seed_base + i);
    spec.vanilla = false;
    const simcheck::Scenario scenario = simcheck::build_scenario(spec);
    add({"fuzz/flat-seed" + std::to_string(seed_base + i), scenario.app,
         scenario.placement, scenario.config});
  }

  // Fuzzed multi-node scenarios: scan seeds for genuinely multi-node
  // shapes and run them through the cluster engine.
  const std::size_t cluster_fuzz = smoke ? 1 : 3;
  std::size_t found = 0;
  for (std::uint64_t s = seed_base + 100;
       found < cluster_fuzz && s < seed_base + 400; ++s) {
    simcheck::ScenarioSpec spec = simcheck::random_spec(s);
    spec.vanilla = false;
    if (simcheck::sanitize_spec(spec).num_nodes < 2) continue;
    const simcheck::Scenario scenario = simcheck::build_scenario(spec);
    ScenarioData data{"fuzz/cluster-seed" + std::to_string(s), scenario.app,
                      scenario.placement};
    data.cluster_placement = scenario.cluster_placement;
    data.cluster_config = scenario.cluster_config;
    add(std::move(data));
    ++found;
  }

  // Scenario-diversity families: a static mid-domain load bump (the case
  // where priorities fixed at start *can* win), a rotating straggler, and
  // an AMR-style drifting front (the cases where they cannot). All flat,
  // 8 ranks on a 4-core SMT2 chip.
  auto flat8 = [](ScenarioData data) {
    data.config.chip.num_cores = 4;
    data.config.chip.memory.num_cores = 4;
    return data;
  };
  if (!smoke) {
    workloads::StencilConfig stencil;
    stencil.num_ranks = 8;
    add(flat8({"workload/stencil", workloads::build_stencil(stencil),
               mpisim::Placement::identity(8)}));
    workloads::MasterWorkerConfig straggler;
    straggler.num_ranks = 8;
    add(flat8({"workload/straggler", workloads::build_master_worker(straggler),
               mpisim::Placement::identity(8)}));
  }
  {
    workloads::DriftConfig drift;
    drift.num_ranks = 8;
    if (smoke) drift.iterations = 6;
    add(flat8({"workload/drift", workloads::build_drift(drift),
               mpisim::Placement::identity(8)}));
  }

  // Heterogeneous clusters. mixed-width: a stencil spanning an SMT2 node
  // and an SMT4 node, seated by capacity — per-node seat ranking is what
  // discriminates shape-aware policies here. hetero-drift: the drifting
  // front crossing a cluster whose second node is clocked 20% slower.
  {
    cluster::ClusterConfig config;
    config.num_nodes = 2;
    config.node_shapes = {{}, {.threads_per_core = 4}};
    std::vector<std::uint32_t> contexts, tpc;
    for (std::uint32_t node = 0; node < config.num_nodes; ++node) {
      const smt::ChipConfig chip = config.node_chip(node);
      contexts.push_back(chip.num_contexts());
      tpc.push_back(chip.threads_per_core());
    }
    workloads::StencilConfig stencil;
    stencil.num_ranks = 10;
    if (smoke) stencil.iterations = 5;
    ScenarioData data{"cluster/mixed-width", workloads::build_stencil(stencil),
                      {}};
    data.cluster_placement = cluster::ClusterPlacement::block_by_capacity(
        stencil.num_ranks, contexts, tpc);
    data.placement = data.cluster_placement->within;
    data.cluster_config = config;
    add(std::move(data));
  }
  if (!smoke) {
    cluster::ClusterConfig config;
    config.num_nodes = 2;
    config.node_shapes = {{}, {.clock_scale = 0.8}};
    workloads::DriftConfig drift;
    drift.num_ranks = 8;
    ScenarioData data{"cluster/hetero-drift", workloads::build_drift(drift),
                      {}};
    data.cluster_placement = cluster::ClusterPlacement::block(8, 2);
    data.placement = data.cluster_placement->within;
    data.cluster_config = config;
    add(std::move(data));
  }

  // The cluster bench's node-skewed workload.
  {
    cluster::SkewedClusterConfig config;
    if (smoke) config.iterations = 4;
    cluster::SkewedCluster skew = cluster::make_skewed_cluster(config);
    ScenarioData data{"cluster/skewed", std::move(skew.app),
                      skew.placement.within};
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    data.cluster_placement = std::move(skew.placement);
    data.cluster_config = cluster_config;
    add(std::move(data));
  }

  // The migration showcase: the heavy set hops between nodes every
  // phase, on 4-core nodes with free seats so cross-node rank migration
  // has landing room. Priorities-only policies can at best soften the
  // within-node spread; only the repartition family can chase the skew.
  {
    cluster::TimeVaryingClusterConfig config;
    if (smoke) {
      config.iterations = 8;
      config.phase_length = 4;
      config.base_instructions = 1e9;
    }
    cluster::SkewedCluster varying = cluster::make_time_varying_cluster(config);
    ScenarioData data{"cluster/migrate-varying", std::move(varying.app),
                      varying.placement.within};
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    cluster_config.node.chip.num_cores = 4;
    cluster_config.node.chip.memory.num_cores = 4;
    data.cluster_placement = std::move(varying.placement);
    data.cluster_config = cluster_config;
    add(std::move(data));
  }
  return corpus;
}

/// Validates an entrant spec early so a typo fails with the registry's
/// did-you-mean error instead of N identical failed runs.
void validate_entrant(const std::string& spec) {
  if (spec == "none") return;
  policy::PolicyContext context;
  context.num_ranks = 2;
  (void)policy::Registry::instance().make(spec, context);
}

struct Cell {
  bool ok = false;
  std::string error;
  double exec_time = 0.0;
  double imbalance = 0.0;
  double speedup = 0.0;  ///< baseline exec / this exec (0 when unknown)
};

struct Standing {
  std::string policy;
  double geomean_speedup = 0.0;
  std::size_t wins = 0;
  std::size_t scored = 0;  ///< scenarios with both baseline and entrant ok
  double mean_imbalance = 0.0;
};

int run_tournament(bool smoke, std::uint64_t seed_base,
                   std::vector<std::string> entrants,
                   const runner::CliOptions& cli) {
  const auto corpus = build_corpus(smoke, seed_base);
  if (entrants.empty()) {
    entrants.push_back("none");
    for (const policy::PolicyInfo& info : policy::Registry::instance().list()) {
      entrants.push_back(info.name);
    }
  }
  for (const std::string& entrant : entrants) validate_entrant(entrant);

  std::vector<runner::RunSpec> specs;
  specs.reserve(corpus.size() * entrants.size());
  for (const auto& scenario : corpus) {
    for (const std::string& entrant : entrants) {
      runner::RunSpec spec;
      spec.label = scenario->name + " | " + entrant;
      spec.app = scenario->app;
      spec.placement = scenario->placement;
      spec.config = scenario->config;
      spec.cluster_placement = scenario->cluster_placement;
      spec.cluster_config = scenario->cluster_config;
      spec.make_policy = [scenario, entrant]()
          -> std::unique_ptr<mpisim::BalancePolicy> {
        if (entrant == "none") return nullptr;
        policy::PolicyContext context;
        context.num_ranks = scenario->app.size();
        return policy::Registry::instance().make(entrant, context);
      };
      specs.push_back(std::move(spec));
    }
  }

  const runner::BatchRunner batch_runner(runner::BatchOptions{
      .jobs = cli.jobs, .cache_capacity = cli.cache_capacity});
  const runner::BatchResult batch = batch_runner.run(specs);
  std::cerr << "[tournament] " << runner::describe(batch) << '\n';

  // Score the matrix: cells[s][e], baseline = the "none" column (the
  // first entrant when "none" is not entered — everything is then
  // relative to that policy instead).
  std::size_t baseline = 0;
  for (std::size_t e = 0; e < entrants.size(); ++e) {
    if (entrants[e] == "none") baseline = e;
  }
  std::vector<std::vector<Cell>> cells(
      corpus.size(), std::vector<Cell>(entrants.size()));
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    for (std::size_t e = 0; e < entrants.size(); ++e) {
      const runner::RunOutcome& out = batch.runs[s * entrants.size() + e];
      Cell& cell = cells[s][e];
      cell.ok = out.ok;
      cell.error = out.error;
      if (out.ok) {
        cell.exec_time = out.result->exec_time;
        cell.imbalance = out.result->imbalance;
      }
    }
    const Cell& base = cells[s][baseline];
    if (!base.ok) continue;
    for (std::size_t e = 0; e < entrants.size(); ++e) {
      Cell& cell = cells[s][e];
      if (cell.ok && cell.exec_time > 0.0) {
        cell.speedup = base.exec_time / cell.exec_time;
      }
    }
  }

  std::vector<Standing> standings;
  for (std::size_t e = 0; e < entrants.size(); ++e) {
    Standing standing;
    standing.policy = entrants[e];
    double log_sum = 0.0;
    double imbalance_sum = 0.0;
    for (std::size_t s = 0; s < corpus.size(); ++s) {
      const Cell& cell = cells[s][e];
      if (cell.speedup <= 0.0) continue;
      log_sum += std::log(cell.speedup);
      imbalance_sum += cell.imbalance;
      ++standing.scored;
      if (cell.speedup > 1.0) ++standing.wins;
    }
    if (standing.scored > 0) {
      standing.geomean_speedup =
          std::exp(log_sum / static_cast<double>(standing.scored));
      standing.mean_imbalance =
          imbalance_sum / static_cast<double>(standing.scored);
    }
    standings.push_back(std::move(standing));
  }
  std::sort(standings.begin(), standings.end(),
            [](const Standing& a, const Standing& b) {
              if (a.geomean_speedup != b.geomean_speedup) {
                return a.geomean_speedup > b.geomean_speedup;
              }
              return a.policy < b.policy;
            });

  std::cout << "Policy tournament — " << corpus.size() << " scenarios x "
            << entrants.size() << " entrants"
            << (smoke ? " (smoke corpus)" : "") << "\n\n";
  std::printf("%4s  %-24s %16s %6s %9s %10s\n", "rank", "policy",
              "geomean speedup", "wins", "scenarios", "mean imb");
  for (std::size_t i = 0; i < standings.size(); ++i) {
    const Standing& standing = standings[i];
    std::printf("%4zu  %-24s %16.4f %6zu %9zu %10.4f\n", i + 1,
                standing.policy.c_str(), standing.geomean_speedup,
                standing.wins, standing.scored, standing.mean_imbalance);
  }

  std::cout << "\nScenario winners (speedup over the baseline):\n";
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    std::size_t best = baseline;
    for (std::size_t e = 0; e < entrants.size(); ++e) {
      if (cells[s][e].speedup > cells[s][best].speedup ||
          (cells[s][e].speedup == cells[s][best].speedup &&
           entrants[e] < entrants[best])) {
        best = e;
      }
    }
    std::printf("  %-28s %-24s %8.4f\n", corpus[s]->name.c_str(),
                entrants[best].c_str(), cells[s][best].speedup);
  }

  if (!cli.json_path.empty()) {
    std::ofstream os(cli.json_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw SimulationError("cannot write " + cli.json_path);
    }
    os << R"({"schema":"smtbal.tournament/1","type":"meta","smoke":)"
       << (smoke ? "true" : "false") << ",\"seed_base\":" << seed_base
       << ",\"baseline\":\"" << json_escape(entrants[baseline])
       << "\",\"policies\":[";
    for (std::size_t e = 0; e < entrants.size(); ++e) {
      os << (e != 0 ? "," : "") << '"' << json_escape(entrants[e]) << '"';
    }
    os << "],\"scenarios\":[";
    for (std::size_t s = 0; s < corpus.size(); ++s) {
      os << (s != 0 ? "," : "") << '"' << json_escape(corpus[s]->name) << '"';
    }
    os << "]}\n";
    for (std::size_t s = 0; s < corpus.size(); ++s) {
      for (std::size_t e = 0; e < entrants.size(); ++e) {
        const Cell& cell = cells[s][e];
        os << R"({"schema":"smtbal.tournament/1","type":"cell","scenario":")"
           << json_escape(corpus[s]->name) << "\",\"policy\":\""
           << json_escape(entrants[e]) << "\",\"ok\":"
           << (cell.ok ? "true" : "false");
        if (cell.ok) {
          os << ",\"exec_time\":" << json_num(cell.exec_time)
             << ",\"imbalance\":" << json_num(cell.imbalance)
             << ",\"speedup\":" << json_num(cell.speedup);
        } else {
          os << ",\"error\":\"" << json_escape(cell.error) << '"';
        }
        os << "}\n";
      }
    }
    for (std::size_t i = 0; i < standings.size(); ++i) {
      const Standing& standing = standings[i];
      os << R"({"schema":"smtbal.tournament/1","type":"rank","rank":)"
         << i + 1 << ",\"policy\":\"" << json_escape(standing.policy)
         << "\",\"geomean_speedup\":" << json_num(standing.geomean_speedup)
         << ",\"wins\":" << standing.wins
         << ",\"scenarios\":" << standing.scored
         << ",\"mean_imbalance\":" << json_num(standing.mean_imbalance)
         << "}\n";
    }
    // The one scheduling-dependent line (sampler/cache counters, incl.
    // evictions and peak_size under --cache-capacity); drop it before
    // diffing files from different --jobs values.
    os << runner::to_json_batch_record(batch) << '\n';
  }

  std::size_t failures = 0;
  for (const runner::RunOutcome& out : batch.runs) {
    if (out.ok) continue;
    ++failures;
    std::cerr << "[tournament] FAILED " << out.label << ": " << out.error
              << '\n';
  }
  return failures == 0 ? 0 : 1;
}

void list_policies() {
  std::cout << "Registered policies (spec syntax: name[:key=value,...]):\n";
  for (const policy::PolicyInfo& info : policy::Registry::instance().list()) {
    std::cout << "\n  " << info.name << "\n    " << info.summary << '\n';
    if (!info.schema.empty()) {
      std::cout << "    keys: " << info.schema << '\n';
    }
  }
  std::cout << "\n  none\n    baseline: no policy, every rank at the kernel "
               "default\n";
}

}  // namespace

int main(int argc, char** argv) try {
  const runner::CliOptions cli = runner::parse_cli(argc, argv);
  bool smoke = false;
  bool list_scenarios = false;
  std::uint64_t seed_base = 4200;
  std::vector<std::string> entrants;
  for (std::size_t i = 0; i < cli.positional.size(); ++i) {
    const std::string& arg = cli.positional[i];
    auto value_of = [&](const std::string& flag) -> std::string {
      if (arg == flag) {
        SMTBAL_REQUIRE(i + 1 < cli.positional.size(), flag + " needs a value");
        return cli.positional[++i];
      }
      return arg.substr(flag.size() + 1);  // "--flag=value"
    };
    if (arg == "--list-policies") {
      list_policies();
      return 0;
    }
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--list-scenarios") {
      list_scenarios = true;  // deferred: honours a later --smoke/--seed-base
    } else if (arg == "--policies" || arg.rfind("--policies=", 0) == 0) {
      std::istringstream list(value_of("--policies"));
      for (std::string item; std::getline(list, item, ',');) {
        SMTBAL_REQUIRE(!item.empty(), "--policies: empty policy spec");
        entrants.push_back(item);
      }
    } else if (arg == "--seed-base" || arg.rfind("--seed-base=", 0) == 0) {
      seed_base = std::stoull(value_of("--seed-base"));
    } else {
      throw InvalidArgument("unknown argument '" + arg +
                            "' (try --smoke, --policies, --seed-base, "
                            "--list-policies, --list-scenarios, --jobs, "
                            "--json, --cache-capacity)");
    }
  }
  if (list_scenarios) {
    for (const auto& scenario : build_corpus(smoke, seed_base)) {
      std::cout << scenario->name << '\n';
    }
    return 0;
  }
  return run_tournament(smoke, seed_base, std::move(entrants), cli);
} catch (const std::exception& e) {
  std::cerr << "tournament: " << e.what() << '\n';
  return 1;
}
