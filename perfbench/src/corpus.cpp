#include "corpus.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/workload.hpp"
#include "common/rng.hpp"
#include "policy/registry.hpp"
#include "simcheck/scenario.hpp"
#include "workloads/btmz.hpp"
#include "workloads/cases.hpp"
#include "workloads/drift.hpp"
#include "workloads/fig1.hpp"
#include "workloads/master_worker.hpp"
#include "workloads/metbench.hpp"
#include "workloads/siesta.hpp"
#include "workloads/stencil.hpp"

namespace perfbench {

namespace {

/// Independent draw streams per concern, all rooted at the workload seed.
Rng stream(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ salt;
  return Rng(splitmix64(s));
}

Scenario flat(std::string name, mpisim::Application app,
                mpisim::Placement placement) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.app = std::move(app);
  scenario.placement = std::move(placement);
  return scenario;
}

ScenarioPtr share(Scenario scenario) {
  return std::make_shared<const Scenario>(std::move(scenario));
}

Scenario on_four_cores(Scenario scenario) {
  scenario.config.chip.num_cores = 4;
  scenario.config.chip.memory.num_cores = 4;
  return scenario;
}

Scenario cluster_scenario(std::string name, cluster::SkewedCluster built,
                          cluster::ClusterConfig config) {
  Scenario scenario =
      flat(std::move(name), std::move(built.app), built.placement.within);
  scenario.cluster_placement = std::move(built.placement);
  scenario.cluster_config = std::move(config);
  return scenario;
}

Scenario mixed_width_cluster(int iterations) {
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
  stencil.iterations = iterations;
  Scenario scenario =
      flat("cluster/mixed-width", workloads::build_stencil(stencil), {});
  scenario.cluster_placement = cluster::ClusterPlacement::block_by_capacity(
      stencil.num_ranks, contexts, tpc);
  scenario.placement = scenario.cluster_placement->within;
  scenario.cluster_config = config;
  return scenario;
}

/// A fuzz-drawn flat scenario of fixed shape, two ranks sharing one SMT2
/// core: the seed re-rolls kernels, instruction counts and message sizes,
/// not the size of the problem. At this shape a draw costs 0.1-0.25 s
/// cold on the reference machine (4-5 measurements), below every fixed
/// scenario near sweep-cold's tail percentile, so the seed does not move
/// the tail; at 4 ranks on 2 cores draws cost 0.27-0.86 s and decided it.
Scenario fuzz_scenario(std::uint64_t spec_seed, std::uint32_t family) {
  simcheck::ScenarioSpec spec;
  spec.seed = spec_seed;
  spec.num_ranks = 2;
  spec.num_cores = 1;
  spec.threads_per_core = 2;
  spec.blocks = 1;
  spec.family = family;
  const simcheck::Scenario built = simcheck::build_scenario(spec);
  Scenario scenario =
      flat("fuzz/" + simcheck::to_string(spec), built.app, built.placement);
  scenario.config = built.config;
  // The sweep measures the cycle model at calibration grade, like the
  // paper cases, instead of the fuzzer's short windows.
  scenario.config.sampler = smt::ThroughputSampler::Options{};
  return scenario;
}

}  // namespace

std::vector<ScenarioPtr> cold_corpus(std::uint64_t seed) {
  std::vector<ScenarioPtr> corpus;
  Rng rng = stream(seed, 0xC01DC0DEULL);

  // Paper cases on their case-A seating, every rank at MEDIUM.
  {
    workloads::MetBenchConfig config;
    config.iterations = 1;
    corpus.push_back(
        share(flat("paper/metbench-A", workloads::build_metbench(config),
                   workloads::metbench_cases().front().placement)));
  }
  {
    workloads::BtmzConfig config;
    config.iterations = 1;
    corpus.push_back(share(flat("paper/btmz-A", workloads::build_btmz(config),
                                workloads::btmz_cases().front().placement)));
  }
  {
    workloads::SiestaConfig config;
    config.iterations = 1;
    corpus.push_back(
        share(flat("paper/siesta-A", workloads::build_siesta(config),
                   workloads::siesta_cases().front().placement)));
  }

  {
    workloads::Fig1Config config;
    config.iterations = 1;
    corpus.push_back(
        share(flat("paper/fig1-ref", workloads::build_fig1(config),
                   workloads::fig1_cases().front().placement)));
  }
  {
    // The SMT4 extrapolation: 8 MetBench ranks on a 2-core SMT4 chip.
    workloads::MetBenchConfig config;
    config.num_ranks = 8;
    config.iterations = 1;
    config.heavy = {false, true, false, false, false, true, false, false};
    config.light_fraction = 0.25;
    Scenario scenario = flat("paper/smt4-A", workloads::build_metbench(config),
                             workloads::smt4_cases().front().placement);
    scenario.config.chip.core.threads_per_core = 4;
    corpus.push_back(share(std::move(scenario)));
  }

  // Workload families on a 4-core SMT2 chip, 8 ranks.
  {
    workloads::StencilConfig config;
    config.iterations = 1;
    corpus.push_back(share(on_four_cores(
        flat("workload/stencil", workloads::build_stencil(config),
             mpisim::Placement::identity(8)))));
  }
  {
    workloads::MasterWorkerConfig config;
    config.num_ranks = 8;
    config.rounds = 1;
    corpus.push_back(share(on_four_cores(
        flat("workload/straggler", workloads::build_master_worker(config),
             mpisim::Placement::identity(8)))));
  }
  {
    workloads::DriftConfig config;
    config.iterations = 1;
    corpus.push_back(share(on_four_cores(
        flat("workload/drift", workloads::build_drift(config),
             mpisim::Placement::identity(8)))));
  }

  // Clusters: node-skewed, mixed SMT width, and the migration showcase.
  {
    cluster::SkewedClusterConfig config;
    config.iterations = 1;
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    corpus.push_back(share(cluster_scenario(
        "cluster/skewed", cluster::make_skewed_cluster(config),
        cluster_config)));
  }
  corpus.push_back(share(mixed_width_cluster(1)));
  {
    cluster::TimeVaryingClusterConfig config;
    config.ranks_per_node = 2;
    config.heavy_ranks = 1;
    config.iterations = 2;
    config.phase_length = 1;
    config.base_instructions = 1e9;
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    corpus.push_back(share(cluster_scenario(
        "cluster/migrate-varying", cluster::make_time_varying_cluster(config),
        cluster_config)));
  }

  // Fuzz draws of the random-blocks and halo-stencil generator families.
  for (const std::uint32_t family : {0u, 1u}) {
    corpus.push_back(share(fuzz_scenario(rng(), family)));
  }
  return corpus;
}

std::vector<ScenarioPtr> warm_corpus(std::uint64_t seed) {
  std::vector<ScenarioPtr> corpus;
  Rng rng = stream(seed, 0x3A53C0DEULL);

  corpus.push_back(share(flat("paper/btmz-full", workloads::build_btmz({}),
                              workloads::btmz_cases().front().placement)));
  {
    workloads::SiestaConfig config;
    config.seed = rng();
    corpus.push_back(
        share(flat("paper/siesta-A", workloads::build_siesta(config),
                   workloads::siesta_cases().front().placement)));
  }
  {
    workloads::StencilConfig config;
    config.iterations = 60;
    corpus.push_back(share(on_four_cores(
        flat("workload/stencil-long", workloads::build_stencil(config),
             mpisim::Placement::identity(8)))));
  }
  {
    workloads::MasterWorkerConfig config;
    config.num_ranks = 8;
    config.rounds = 60;
    corpus.push_back(share(on_four_cores(flat(
        "workload/straggler-long", workloads::build_master_worker(config),
        mpisim::Placement::identity(8)))));
  }
  {
    cluster::TimeVaryingClusterConfig config;
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    cluster_config.node.chip.num_cores = 4;
    cluster_config.node.chip.memory.num_cores = 4;
    corpus.push_back(share(cluster_scenario(
        "cluster/migrate-varying", cluster::make_time_varying_cluster(config),
        cluster_config)));
  }
  // Short sampler windows: the timed passes never reach the cycle model,
  // so only the set-up fill pays for measurements.
  std::vector<ScenarioPtr> windowed;
  for (const ScenarioPtr& scenario : corpus) {
    Scenario copy = *scenario;
    copy.config.sampler.warmup_cycles = 500;
    copy.config.sampler.window_cycles = 2'000;
    if (copy.cluster_config) {
      copy.cluster_config->node.sampler = copy.config.sampler;
    }
    windowed.push_back(share(std::move(copy)));
  }
  return windowed;
}

std::vector<std::string> tournament_entrants() {
  std::vector<std::string> entrants{"none"};
  for (const policy::PolicyInfo& info : policy::Registry::instance().list()) {
    entrants.push_back(info.name);
  }
  return entrants;
}

std::unique_ptr<mpisim::BalancePolicy> make_entrant(
    const Scenario& scenario, const std::string& entrant) {
  if (entrant == "none") return nullptr;
  policy::PolicyContext context;
  context.num_ranks = scenario.app.size();
  context.threads_per_core = scenario.node_config().chip.threads_per_core();
  context.placement = scenario.cluster_placement
                          ? &scenario.cluster_placement->within
                          : &scenario.placement;
  context.cluster =
      scenario.cluster_placement ? &*scenario.cluster_placement : nullptr;
  return policy::Registry::instance().make(entrant, context);
}

std::vector<Entry> tournament(const std::vector<ScenarioPtr>& corpus,
                              const std::vector<std::string>& entrants) {
  std::vector<Entry> matrix;
  matrix.reserve(corpus.size() * entrants.size());
  for (const ScenarioPtr& scenario : corpus) {
    for (const std::string& entrant : entrants) {
      matrix.push_back({scenario, entrant});
    }
  }
  return matrix;
}

Entry service_entry(const service::EvalRequest& request) {
  const simcheck::ScenarioSpec spec =
      simcheck::parse_spec_string(request.scenario);
  simcheck::Scenario built = simcheck::build_scenario(spec);
  Scenario scenario = flat(simcheck::canonical_spec_string(spec),
                           std::move(built.app), std::move(built.placement));
  scenario.config = std::move(built.config);
  if (built.cluster_config.num_nodes > 1) {
    scenario.cluster_placement = std::move(built.cluster_placement);
    scenario.cluster_config = std::move(built.cluster_config);
  }
  return {share(std::move(scenario)), request.policy};
}

std::vector<runner::RunSpec> run_specs(const std::vector<Entry>& matrix,
                                       const RunHook& hook) {
  std::vector<runner::RunSpec> specs;
  specs.reserve(matrix.size());
  for (std::size_t index = 0; index < matrix.size(); ++index) {
    const ScenarioPtr& scenario = matrix[index].scenario;
    const std::string& entrant = matrix[index].entrant;
    runner::RunSpec spec;
    spec.label = scenario->name + " | " + entrant;
    spec.app = scenario->app;
    spec.placement = scenario->placement;
    spec.config = scenario->config;
    spec.cluster_placement = scenario->cluster_placement;
    spec.cluster_config = scenario->cluster_config;
    spec.make_policy = [scenario, entrant, hook, index] {
      std::unique_ptr<mpisim::BalancePolicy> policy =
          make_entrant(*scenario, entrant);
      return hook ? hook(index, std::move(policy)) : std::move(policy);
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

ServiceSchedule service_schedule(std::uint64_t seed, const ServiceLoad& load) {
  ServiceSchedule schedule;
  // Fixed shapes, seed-drawn details. Hot-set specs vary in size, and
  // every third spans two nodes so the cluster engine serves requests
  // too; fresh specs share one small shape so that every miss costs about
  // the same and the tail does not hinge on a few outsized evaluations.
  // The family cycles fastest and the policy (every tournament entrant)
  // once per four shapes, so the first 4 x 8 shapes are the whole
  // ScenarioSpec family x policy cross product.
  const std::vector<std::string> policies = tournament_entrants();
  Rng specs = stream(seed, 0x5E4F1CE5ULL);
  auto next_request = [&specs, &policies](std::size_t shape, bool fresh) {
    service::EvalRequest request;
    request.scenario =
        "seed=" + std::to_string(specs() >> 16) +
        (fresh ? " ranks=4 cores=2 blocks=2"
               : " ranks=6 cores=3 blocks=" + std::to_string(2 + shape % 3)) +
        " family=" + std::to_string(shape % 4) +
        (!fresh && shape % 3 == 2 ? " nodes=2" : "");
    request.policy = policies[(shape / 4) % policies.size()];
    return request;
  };
  for (std::size_t i = 0; i < load.hot_set; ++i) {
    schedule.hot_set.push_back(next_request(i, false));
  }

  std::vector<double> cumulative(load.hot_set);
  double total = 0.0;
  for (std::size_t r = 0; r < load.hot_set; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), load.zipf_s);
    cumulative[r] = total;
  }
  Rng mix = stream(seed, 0x0111'ED00ULL);
  auto zipf_pick = [&] {
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(),
                                     mix.uniform() * total);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative.begin()), load.hot_set - 1);
  };

  // Exact lane and fresh-request counts, in a seed-shuffled order, so
  // every seed offers the same mix at the same rate.
  enum class Kind { kInteractive, kRepeat, kFresh };
  const auto count = static_cast<std::size_t>(
      std::llround(load.rate_per_s * load.seconds));
  const auto interactive = static_cast<std::size_t>(
      std::llround(static_cast<double>(count) * load.interactive_share));
  const auto fresh = static_cast<std::size_t>(std::llround(
      static_cast<double>(count - interactive) * load.fresh_share));
  std::vector<Kind> kinds(count, Kind::kRepeat);
  std::fill_n(kinds.begin(), interactive, Kind::kInteractive);
  std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(interactive), fresh,
              Kind::kFresh);
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[mix.below(i)]);
  }

  // Poisson arrivals conditioned on `count` of them in the window:
  // exponential gaps rescaled to span exactly `seconds`.
  Rng arrivals = stream(seed, 0xA771'7A15ULL);
  std::vector<double> at(count + 1);
  double t = 0.0;
  for (double& time : at) {
    t += -std::log(1.0 - arrivals.uniform());
    time = t;
  }
  for (std::size_t n = 0; n < count; ++n) {
    ScheduledRequest arrival;
    arrival.send_at_s = at[n] / at[count] * load.seconds;
    if (kinds[n] == Kind::kFresh) {
      schedule.fresh.push_back(next_request(schedule.fresh.size(), true));
      arrival.request = schedule.fresh.back();
      arrival.fresh = true;
    } else {
      arrival.request = schedule.hot_set[zipf_pick()];
    }
    arrival.request.lane = kinds[n] == Kind::kInteractive
                               ? service::Lane::kInteractive
                               : service::Lane::kBatch;
    arrival.request.id = "r";
    arrival.request.id += std::to_string(n);
    schedule.arrivals.push_back(std::move(arrival));
  }
  return schedule;
}

}  // namespace perfbench
