// Ablation: the dynamic per-iteration balancer (the paper's §VIII future
// work, implemented in policy/dynamic) against the static
// assignments on SIESTA — plus MetBench, where the bottleneck is stable
// and the controller should converge to the paper's case-C optimum on
// its own.
#include <iostream>

#include "bench_util.hpp"
#include "policy/dynamic.hpp"
#include "workloads/metbench.hpp"
#include "workloads/siesta.hpp"

using namespace smtbal;

namespace {

void report(const std::string& name, const mpisim::RunResult& result,
            double baseline, std::uint64_t adjustments) {
  std::cout << "  " << name << ": exec "
            << TextTable::num(result.exec_time, 2) << "s, imbalance "
            << TextTable::pct(result.imbalance) << "%";
  if (baseline > 0.0) {
    const double gain = (baseline - result.exec_time) / baseline * 100.0;
    std::cout << " (" << (gain >= 0 ? "+" : "")
              << TextTable::num(gain, 2) << "% vs baseline)";
  }
  if (adjustments > 0) std::cout << ", " << adjustments << " priority rewrites";
  std::cout << '\n';
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — dynamic wait-gap balancer vs static priority assignments");
  // Every run shares one sampler, so each chip load is measured once.
  const mpisim::EngineConfig config;
  const auto sampler = std::make_shared<smt::ThroughputSampler>(
      config.chip, config.sampler);
  const auto run = [&](const mpisim::Application& app,
                       const mpisim::Placement& placement,
                       mpisim::BalancePolicy* policy = nullptr) {
    mpisim::Engine engine(app, placement, config, sampler);
    engine.set_policy(policy);
    return engine.run();
  };

  {
    std::cout << "\nSIESTA (rotating bottleneck; paired mapping P2,P3|P1,P4):\n";
    const auto app = workloads::build_siesta(workloads::SiestaConfig{});
    const auto paired = mpisim::Placement::from_linear({2, 0, 1, 3});

    const auto baseline = run(app, paired);
    report("no policy (all MEDIUM)      ", baseline, 0.0, 0);

    policy::StaticPriorityPolicy best_static({4, 4, 4, 5});  // paper case C
    const auto static_run = run(app, paired, &best_static);
    report("best static (paper case C)  ", static_run, baseline.exec_time, 0);

    policy::DynamicBalancer dynamic;  // conservative defaults (max gap 1)
    const auto dynamic_run = run(app, paired, &dynamic);
    report("dynamic balancer            ", dynamic_run, baseline.exec_time,
           dynamic.adjustments());

    policy::DynamicBalancerConfig aggressive;
    aggressive.max_diff = 2;
    policy::DynamicBalancer dynamic2(aggressive);
    const auto dynamic2_run = run(app, paired, &dynamic2);
    report("dynamic (max gap 2)         ", dynamic2_run, baseline.exec_time,
           dynamic2.adjustments());
  }

  {
    std::cout << "\nMetBench (stable bottleneck; default mapping):\n";
    const auto app = workloads::build_metbench(workloads::MetBenchConfig{});
    const auto placement = mpisim::Placement::identity(4);

    const auto baseline = run(app, placement);
    report("no policy (all MEDIUM)      ", baseline, 0.0, 0);

    policy::StaticPriorityPolicy best_static({4, 6, 4, 6});  // paper case C
    const auto static_run = run(app, placement, &best_static);
    report("best static (paper case C)  ", static_run, baseline.exec_time, 0);

    policy::DynamicBalancerConfig gap2;
    gap2.max_diff = 2;  // MetBench's optimum is a gap of 2
    policy::DynamicBalancer dynamic(gap2);
    const auto dynamic_run = run(app, placement, &dynamic);
    report("dynamic balancer (gap<=2)   ", dynamic_run, baseline.exec_time,
           dynamic.adjustments());
  }

  std::cout << "\nThe controller reaches (or approaches) the best static\n"
               "assignment without offline tuning, and adapts when the\n"
               "bottleneck moves — the behaviour the paper argues for in its\n"
               "conclusions.\n";
  return 0;
}
