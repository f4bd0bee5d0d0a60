// Two-level balancing on a small cluster: two SMT nodes run the same
// heavy/light rank mix, but node 0's ranks carry 1.6x the work, so the
// whole cluster waits for them at every barrier. The two-level balancer
// fixes the within-node imbalance with one DynamicBalancer per node and
// additionally widens the lagging node's priority-gap ceiling, and the
// multi-node PARAVER export places each rank on its hosting node.
//
//   $ ./cluster_balancing [--hetero] [--workload NAME] [out.prv]
//
//   --hetero          make node 1 an SMT4 chip (node 0 stays SMT2) and
//                     seat the ranks by capacity: the wide node hosts
//                     more of them
//   --workload NAME   skewed (default) | stencil | straggler | drift
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "cluster/engine.hpp"
#include "cluster/placement.hpp"
#include "cluster/workload.hpp"
#include "common/error.hpp"
#include "policy/two_level.hpp"
#include "trace/paraver.hpp"
#include "workloads/drift.hpp"
#include "workloads/master_worker.hpp"
#include "workloads/stencil.hpp"

using namespace smtbal;

namespace {

struct Setup {
  mpisim::Application app;
  cluster::ClusterPlacement placement;
  cluster::ClusterConfig config;
};

Setup make_setup(const std::string& workload, bool hetero) {
  Setup setup;
  setup.config.num_nodes = 2;
  if (hetero) {
    // Node 1 doubles its SMT width; node 0 keeps the base shape.
    setup.config.node_shapes = {{}, {.threads_per_core = 4}};
  }

  if (workload == "skewed") {
    cluster::SkewedClusterConfig skew_config;
    skew_config.num_nodes = 2;
    skew_config.ranks_per_node = 4;
    skew_config.iterations = 8;
    skew_config.base_instructions = 1e9;
    skew_config.light_fraction = 0.1;  // light ranks off the critical path
    skew_config.node_scale = {1.6};    // node 0 carries 1.6x the work
    cluster::SkewedCluster skew = cluster::make_skewed_cluster(skew_config);
    setup.app = std::move(skew.app);
    // The skewed builder's block seating is valid on the hetero cluster
    // too: overrides only widen node 1, never shrink it.
    setup.placement = std::move(skew.placement);
    return setup;
  }

  const std::size_t num_ranks = hetero ? 10 : 8;
  if (workload == "stencil") {
    workloads::StencilConfig config;
    config.num_ranks = num_ranks;
    setup.app = workloads::build_stencil(config);
  } else if (workload == "straggler") {
    workloads::MasterWorkerConfig config;
    config.num_ranks = num_ranks;
    setup.app = workloads::build_master_worker(config);
  } else if (workload == "drift") {
    workloads::DriftConfig config;
    config.num_ranks = num_ranks;
    setup.app = workloads::build_drift(config);
  } else {
    throw InvalidArgument("unknown --workload '" + workload +
                          "' (try skewed, stencil, straggler, drift)");
  }
  if (hetero) {
    std::vector<std::uint32_t> contexts, tpc;
    for (std::uint32_t n = 0; n < setup.config.num_nodes; ++n) {
      const smt::ChipConfig chip = setup.config.node_chip(n);
      contexts.push_back(chip.num_contexts());
      tpc.push_back(chip.threads_per_core());
    }
    setup.placement = cluster::ClusterPlacement::block_by_capacity(
        num_ranks, contexts, tpc);
  } else {
    setup.placement = cluster::ClusterPlacement::block(num_ranks, 2);
  }
  return setup;
}

cluster::ClusterRunResult run_case(const Setup& setup,
                                   policy::TwoLevelBalancer* policy) {
  cluster::ClusterEngine engine(setup.app, setup.placement, setup.config);
  if (policy != nullptr) engine.set_policy(policy);
  return engine.run();
}

void print_case(const char* label, const cluster::ClusterRunResult& result) {
  std::cout << label << " exec " << result.flat.exec_time << " s, imbalance "
            << result.flat.imbalance * 100 << " %\n";
  for (std::size_t n = 0; n < result.nodes.size(); ++n) {
    const cluster::NodeStats& node = result.nodes[n];
    std::cout << "  node " << n << ": " << node.ranks << " ranks, compute "
              << node.compute << " s, wait " << node.wait << " s\n";
  }
}

}  // namespace

int main(int argc, char** argv) try {
  bool hetero = false;
  std::string workload = "skewed";
  std::string path = "cluster_balancing.prv";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--hetero") {
      hetero = true;
    } else if (arg == "--workload") {
      SMTBAL_REQUIRE(i + 1 < argc, "--workload needs a value");
      workload = argv[++i];
    } else if (arg.rfind("--workload=", 0) == 0) {
      workload = arg.substr(std::string("--workload=").size());
    } else if (arg.rfind("--", 0) == 0) {
      throw InvalidArgument("unknown argument '" + arg +
                            "' (try --hetero, --workload)");
    } else {
      path = arg;
    }
  }

  const Setup setup = make_setup(workload, hetero);
  const cluster::ClusterRunResult baseline = run_case(setup, nullptr);
  print_case("all-MEDIUM:", baseline);

  // Outer level may widen a lagging node's gap ceiling by one step.
  policy::TwoLevelBalancerConfig policy_config;
  policy_config.inner.max_diff = 1;
  policy_config.max_node_boost = 1;
  policy::TwoLevelBalancer policy(policy_config);
  const cluster::ClusterRunResult balanced = run_case(setup, &policy);

  std::cout << '\n';
  print_case("two-level: ", balanced);
  std::cout << "  node gap boosts:";
  for (std::uint32_t n = 0; n < setup.config.num_nodes; ++n) {
    std::cout << ' ' << policy.node_boost(n);
  }
  std::cout << "\n  "
            << (1.0 - balanced.flat.exec_time / baseline.flat.exec_time) * 100.0
            << "% faster than all-MEDIUM\n";

  std::ofstream out(path);
  out << trace::to_prv(balanced.flat.trace, balanced.node_of_rank);
  std::cout << "\nPARAVER trace written to " << path << " ("
            << balanced.node_of_rank.size() << " tasks on "
            << balanced.nodes.size() << " nodes)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "cluster_balancing: " << e.what() << '\n';
  return 1;
}
