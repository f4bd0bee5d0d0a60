// A SIESTA-like irregular application balanced at run time by the
// wait-gap controller (the paper's proposed future work), with the
// resulting trace exported in PARAVER .prv format for the real tool.
//
//   $ ./dynamic_balancing [out.prv]
//   $ ./dynamic_balancing --policy allocation:interval=2
//   $ ./dynamic_balancing --list-policies
//
// --policy swaps the balancer for any policy::Registry spec (unknown
// names fail with a did-you-mean suggestion); --list-policies prints the
// registry with each policy's config-string schema.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "mpisim/engine.hpp"
#include "policy/registry.hpp"
#include "trace/gantt.hpp"
#include "trace/paraver.hpp"
#include "workloads/siesta.hpp"

using namespace smtbal;

namespace {

void list_policies() {
  std::cout << "Registered policies (spec syntax: name[:key=value,...]):\n";
  for (const policy::PolicyInfo& info : policy::Registry::instance().list()) {
    std::cout << "\n  " << info.name << "\n    " << info.summary << '\n';
    if (!info.schema.empty()) {
      std::cout << "    keys: " << info.schema << '\n';
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec = "dynamic";
  std::string path = "dynamic_balancing.prv";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-policies") {
      list_policies();
      return 0;
    }
    if (arg == "--policy") {
      if (++i >= argc) {
        std::cerr << "--policy requires a registry spec\n";
        return 2;
      }
      spec = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: dynamic_balancing [out.prv] [--policy SPEC] "
                   "[--list-policies]\n";
      return 0;
    } else {
      path = arg;
    }
  }

  workloads::SiestaConfig config;
  config.iterations = 16;
  const auto app = workloads::build_siesta(config);

  // Pair the similarly-loaded ranks per core (the paper's B-D mapping):
  // a sane placement is a precondition for priority balancing.
  const auto placement = mpisim::Placement::from_linear({2, 0, 1, 3});

  // Build the policy by name so any registered family — priorities,
  // placement moves, budgets — can drive the same run.
  policy::PolicyContext context;
  context.num_ranks = app.size();
  std::unique_ptr<mpisim::BalancePolicy> policy;
  try {
    policy = policy::Registry::instance().make(spec, context);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  // Both runs share one sampler, so each chip load is measured once.
  const mpisim::EngineConfig engine_config;
  const auto sampler = std::make_shared<smt::ThroughputSampler>(
      engine_config.chip, engine_config.sampler);
  mpisim::Engine reference(app, placement, engine_config, sampler);
  const auto baseline = reference.run();
  std::cout << "no balancing:     exec " << baseline.exec_time
            << " s, imbalance " << baseline.imbalance * 100 << " %\n";

  mpisim::Engine engine(app, placement, engine_config, sampler);
  engine.set_policy(policy.get());
  const auto balanced = engine.run();
  std::cout << policy->name() << ": exec " << balanced.exec_time
            << " s, imbalance " << balanced.imbalance * 100 << " % ("
            << (1.0 - balanced.exec_time / baseline.exec_time) * 100.0
            << "% faster)\n\n";

  std::cout << "balanced trace:\n"
            << trace::render_gantt(balanced.trace, {.width = 96});

  std::ofstream out(path);
  out << trace::to_prv(balanced.trace);
  std::cout << "\nPARAVER trace written to " << path << " ("
            << balanced.trace.num_ranks() << " tasks)\n";
  return 0;
}
