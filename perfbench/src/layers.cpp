#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <variant>

#include "cluster/engine.hpp"
#include "isa/kernel.hpp"
#include "isa/stream.hpp"
#include "mem/hierarchy.hpp"
#include "mpisim/engine.hpp"
#include "service/service.hpp"
#include "service/store.hpp"
#include "simcheck/scenario.hpp"
#include "smt/chip.hpp"
#include "sweeps.hpp"

namespace perfbench {

namespace {

class TimedPolicy final : public mpisim::BalancePolicy {
 public:
  TimedPolicy(std::unique_ptr<mpisim::BalancePolicy> inner, SpanRecorder& spans,
              PolicyTally& tally, std::uint64_t run_id)
      : inner_(std::move(inner)),
        spans_(spans),
        tally_(tally),
        run_id_(run_id) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

  void on_start(mpisim::EngineControl& control) override {
    const ScopedSpan span(spans_, "policy.start", run_id_);
    inner_->on_start(control);
  }

  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override {
    const Clock::time_point start = Clock::now();
    {
      const ScopedSpan span(spans_, "policy.epoch", run_id_);
      inner_->on_epoch(control, report);
    }
    const double elapsed = seconds_between(start, Clock::now());
    const std::lock_guard<std::mutex> lock(tally_.mutex);
    ++tally_.epochs;
    tally_.seconds += elapsed;
  }

 private:
  std::unique_ptr<mpisim::BalancePolicy> inner_;
  SpanRecorder& spans_;
  PolicyTally& tally_;
  std::uint64_t run_id_;
};

/// Binds one stream per engaged context of `placed` to `chip`, seeded as
/// the sampler seeds its measurement streams.
std::vector<std::unique_ptr<isa::StreamGen>> bind_load(
    smt::Chip& chip, const PlacedLoad& placed) {
  const auto& registry = isa::KernelRegistry::instance();
  std::vector<std::unique_ptr<isa::StreamGen>> streams(
      placed.chip.num_contexts());
  const smt::ThroughputSampler::Options defaults;
  for (std::uint32_t ctx = 0; ctx < placed.chip.num_contexts(); ++ctx) {
    const CpuId cpu = placed.chip.cpu(ctx);
    const auto& slot = placed.load.contexts[ctx];
    if (slot.has_value()) {
      streams[ctx] = std::make_unique<isa::StreamGen>(
          registry.get(slot->kernel), defaults.seed + ctx * 0x9e37u);
      chip.bind_stream(cpu, streams[ctx].get());
      chip.set_priority(cpu, slot->priority);
    } else {
      chip.bind_stream(cpu, nullptr);
      chip.set_priority(cpu, smt::HwPriority::kOff);
    }
  }
  return streams;
}

double mean_or_zero(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

}  // namespace

std::unique_ptr<mpisim::BalancePolicy> timed_policy(
    std::unique_ptr<mpisim::BalancePolicy> inner, SpanRecorder& spans,
    PolicyTally& tally, std::uint64_t run_id) {
  return std::make_unique<TimedPolicy>(std::move(inner), spans, tally, run_id);
}

void add_policy_metrics(Report& report, PolicyTally& tally) {
  const std::lock_guard<std::mutex> lock(tally.mutex);
  report.add("policy.epoch_us",
             mean_or_zero(tally.seconds * 1e6,
                          static_cast<double>(tally.epochs)),
             "us");
  report.add("policy.epochs", static_cast<double>(tally.epochs), "count");
}

std::vector<isa::KernelId> kernel_set(
    const std::vector<ScenarioPtr>& scenarios) {
  std::vector<isa::KernelId> kernels;
  for (const ScenarioPtr& scenario : scenarios) {
    for (const mpisim::RankProgram& rank : scenario->app.ranks) {
      for (const mpisim::Phase& phase : rank.phases) {
        if (const auto* compute = std::get_if<mpisim::ComputePhase>(&phase)) {
          kernels.push_back(compute->kernel);
        }
      }
    }
  }
  std::sort(kernels.begin(), kernels.end());
  kernels.erase(std::unique(kernels.begin(), kernels.end()), kernels.end());
  return kernels;
}

std::vector<PlacedLoad> frequent_loads(
    const std::vector<ScenarioPtr>& scenarios, std::size_t limit) {
  struct Counted {
    PlacedLoad placed;
    std::size_t count = 0;
  };
  std::vector<Counted> seen;
  auto opening_kernel = [](const mpisim::RankProgram& rank)
      -> std::optional<isa::KernelId> {
    for (const mpisim::Phase& phase : rank.phases) {
      if (const auto* compute = std::get_if<mpisim::ComputePhase>(&phase)) {
        return compute->kernel;
      }
    }
    return std::nullopt;
  };
  for (const ScenarioPtr& scenario : scenarios) {
    const std::uint32_t nodes =
        scenario->cluster_config ? scenario->cluster_config->num_nodes : 1;
    for (std::uint32_t node = 0; node < nodes; ++node) {
      PlacedLoad placed{scenario->cluster_config
                            ? scenario->cluster_config->node_chip(node)
                            : scenario->config.chip,
                        {}};
      const std::uint32_t tpc = placed.chip.threads_per_core();
      for (std::size_t r = 0; r < scenario->app.size(); ++r) {
        if (scenario->cluster_placement &&
            scenario->cluster_placement->node_of_rank[r] != node) {
          continue;
        }
        const std::optional<isa::KernelId> kernel =
            opening_kernel(scenario->app.ranks[r]);
        if (!kernel) continue;
        const std::uint32_t ctx =
            scenario->placement.cpu_of_rank[r].linear(tpc);
        if (ctx >= placed.chip.num_contexts()) continue;
        placed.load.contexts[ctx] =
            smt::ContextLoad{*kernel, smt::kDefaultPriority};
      }
      auto it = std::find_if(seen.begin(), seen.end(), [&](const Counted& c) {
        return c.placed.chip == placed.chip && c.placed.load == placed.load;
      });
      if (it == seen.end()) {
        seen.push_back({std::move(placed), 1});
      } else {
        ++it->count;
      }
    }
  }
  std::stable_sort(seen.begin(), seen.end(),
                   [](const Counted& a, const Counted& b) {
                     return a.count > b.count;
                   });
  std::vector<PlacedLoad> loads;
  for (std::size_t i = 0; i < seen.size() && i < limit; ++i) {
    loads.push_back(std::move(seen[i].placed));
  }
  return loads;
}

void probe_cycle_model(const std::vector<isa::KernelId>& kernels,
                       const std::vector<PlacedLoad>& loads,
                       SpanRecorder& spans, Report& report) {
  const auto& registry = isa::KernelRegistry::instance();
  constexpr std::size_t kOps = 200'000;
  constexpr std::size_t kAccesses = 100'000;
  constexpr Cycle kCycles = 30'000;
  constexpr std::size_t kConstructs = 15;

  // isa: StreamGen::next over the kernel set.
  std::uint64_t sink = 0;
  double stream_s = 0.0;
  for (const isa::KernelId kernel : kernels) {
    isa::StreamGen stream(registry.get(kernel), 0x5EED + kernel);
    const ScopedSpan span(spans, "isa.streamgen", kernel);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      const isa::MicroOp op = stream.next();
      sink += op.address + op.dep_dist;
    }
    stream_s += seconds_between(start, Clock::now());
  }
  report.add("isa.streamgen.ns_per_op",
             stream_s * 1e9 / static_cast<double>(kOps * kernels.size()), "ns");

  // mem: Hierarchy::access on those kernels' address streams, generated
  // ahead of the timed loop and spread round-robin over the cores.
  struct Access {
    std::uint32_t core;
    std::uint64_t address;
    bool is_write;
  };
  std::vector<Access> accesses;
  const mem::HierarchyConfig memory;
  for (const isa::KernelId kernel : kernels) {
    isa::StreamGen stream(registry.get(kernel), 0xACCE55 + kernel);
    for (std::size_t n = 0; n < kAccesses;) {
      const isa::MicroOp op = stream.next();
      if (!op.is_memory()) continue;
      accesses.push_back({static_cast<std::uint32_t>(n % memory.num_cores),
                          op.address, op.cls == isa::OpClass::kStore});
      ++n;
    }
  }
  mem::Hierarchy hierarchy(memory);
  double memory_s = 0.0;
  {
    const ScopedSpan span(spans, "mem.hierarchy");
    const Clock::time_point start = Clock::now();
    for (const Access& access : accesses) {
      sink += hierarchy.access(access.core, access.address, access.is_write)
                  .latency;
    }
    memory_s = seconds_between(start, Clock::now());
  }
  report.add("mem.hierarchy.ns_per_access",
             memory_s * 1e9 / static_cast<double>(accesses.size()), "ns");

  // smt: Chip::run on the most frequent opening loads, after a warm-up.
  double chip_s = 0.0;
  for (const PlacedLoad& placed : loads) {
    smt::Chip chip(placed.chip);
    const auto streams = bind_load(chip, placed);
    chip.run(2'000);
    const ScopedSpan span(spans, "smt.chip");
    const Clock::time_point start = Clock::now();
    chip.run(kCycles);
    chip_s += seconds_between(start, Clock::now());
  }
  report.add("smt.chip.ns_per_cycle",
             chip_s * 1e9 / static_cast<double>(kCycles * loads.size()), "ns");

  // smt: ThroughputSampler construction (a Chip and its caches).
  std::vector<double> construct_ms;
  for (const PlacedLoad& placed : loads) {
    for (std::size_t k = 0; k < kConstructs; ++k) {
      const ScopedSpan span(spans, "smt.sampler_construct");
      const Clock::time_point start = Clock::now();
      const smt::ThroughputSampler sampler(placed.chip);
      construct_ms.push_back(seconds_between(start, Clock::now()) * 1e3);
      sink += sampler.stats().lookups;
    }
  }
  report.add("smt.sampler.construct_ms", percentile(construct_ms, 50.0), "ms");
  if (sink == 0) report.note("probe sink is zero");
}

double probe_engines(const std::vector<Entry>& matrix,
                     const runner::BatchOptions& warm, SpanRecorder& spans,
                     Report& report) {
  struct Domain {
    smt::ChipConfig chip;
    smt::ThroughputSampler::Options options;
    std::shared_ptr<smt::ThroughputSampler> sampler;
  };
  std::vector<Domain> domains;
  auto sampler_for = [&](const mpisim::EngineConfig& node) {
    for (const Domain& domain : domains) {
      if (domain.chip == node.chip && domain.options == node.sampler) {
        return domain.sampler;
      }
    }
    auto sampler =
        std::make_shared<smt::ThroughputSampler>(node.chip, node.sampler);
    sampler->attach_shared_cache(warm.cache_provider(node.chip, node.sampler));
    domains.push_back({node.chip, node.sampler, sampler});
    return sampler;
  };

  // Returns the events of one direct run.
  auto run_once = [&](const Entry& entry) -> std::uint64_t {
    const Scenario& scenario = *entry.scenario;
    std::unique_ptr<mpisim::BalancePolicy> policy =
        make_entrant(scenario, entry.entrant);
    const auto sampler = sampler_for(scenario.node_config());
    if (scenario.cluster_config) {
      cluster::ClusterEngine engine(scenario.app, *scenario.cluster_placement,
                                    *scenario.cluster_config, sampler);
      if (policy) engine.set_policy(policy.get());
      return engine.run().flat.events;
    }
    mpisim::Engine engine(scenario.app, scenario.placement, scenario.config,
                          sampler);
    if (policy) engine.set_policy(policy.get());
    return engine.run().events;
  };

  double flat_s = 0.0, cluster_s = 0.0;
  std::uint64_t flat_events = 0, cluster_events = 0;
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    (void)run_once(matrix[i]);  // warms the sampler's local memo
    const bool clustered = matrix[i].scenario->cluster_config.has_value();
    const ScopedSpan span(spans, clustered ? "cluster.run" : "mpisim.run", i);
    const Clock::time_point start = Clock::now();
    const std::uint64_t events = run_once(matrix[i]);
    const double elapsed = seconds_between(start, Clock::now());
    (clustered ? cluster_s : flat_s) += elapsed;
    (clustered ? cluster_events : flat_events) += events;
  }
  std::uint64_t measured = 0;
  for (const Domain& domain : domains) {
    measured += domain.sampler->stats().misses;
  }
  if (measured != 0) {
    report.mismatch("warm engine probe ran " + std::to_string(measured) +
                    " cycle-level measurements");
  }
  report.add("mpisim.engine.ns_per_event",
             mean_or_zero(flat_s * 1e9, static_cast<double>(flat_events)),
             "ns");
  report.add("mpisim.engine.events", static_cast<double>(flat_events), "count");
  report.add("cluster.engine.ns_per_event",
             mean_or_zero(cluster_s * 1e9, static_cast<double>(cluster_events)),
             "ns");
  return flat_s + cluster_s;
}

double time_store_open(const std::string& journal, SpanRecorder& spans) {
  constexpr std::size_t kOpens = 5;
  std::vector<double> open_ms;
  for (std::size_t k = 0; k < kOpens; ++k) {
    service::ResultStore store;
    const ScopedSpan span(spans, "service.store_open");
    const Clock::time_point start = Clock::now();
    store.open(journal);
    open_ms.push_back(seconds_between(start, Clock::now()) * 1e3);
  }
  return percentile(open_ms, 50.0);
}

double time_store_publish(const std::string& journal, SpanRecorder& spans) {
  constexpr std::size_t kPublishes = 200;
  std::filesystem::remove(journal);
  double publish_s = 0.0;
  {
    service::ResultStore store;
    store.open(journal);
    service::EvalResult result{1.25, 0.0625, 310, 2};
    for (std::size_t i = 0; i < kPublishes; ++i) {
      const std::string canonical = "probe{" + std::to_string(i) + "}";
      const std::uint64_t key = service::canonical_key(canonical);
      const ScopedSpan span(spans, "service.store_publish", i);
      const Clock::time_point start = Clock::now();
      store.publish(key, canonical, result);
      publish_s += seconds_between(start, Clock::now());
    }
  }
  std::filesystem::remove(journal);
  return publish_s * 1e6 / static_cast<double>(kPublishes);
}

void probe_service(std::uint64_t seed, const std::string& scratch_dir,
                   SpanRecorder& spans, Report& report) {
  ServiceLoad load;
  load.hot_set = 8;
  const std::vector<service::EvalRequest> requests =
      service_schedule(seed, load).hot_set;

  // simcheck: scenario construction per request.
  double build_s = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ScopedSpan span(spans, "simcheck.build", i);
    const Clock::time_point start = Clock::now();
    const simcheck::Scenario scenario =
        simcheck::build_scenario(
            simcheck::parse_spec_string(requests[i].scenario));
    build_s += seconds_between(start, Clock::now());
    if (scenario.app.size() == 0) report.mismatch("empty probe scenario");
  }
  report.add("simcheck.build_us",
             build_s * 1e6 / static_cast<double>(requests.size()), "us");

  // The miss path: each request evaluated alone from cold caches.
  std::vector<Entry> matrix;
  for (const service::EvalRequest& request : requests) {
    matrix.push_back(service_entry(request));
  }
  double eval_s = 0.0;
  PolicyTally tally;
  RunClock clock(spans, &tally);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    CacheBank bank;
    const ScopedSpan span(spans, "service.eval", i);
    const Pass pass =
        run_pass(run_specs({matrix[i]}, clock.hook()), bank, clock, spans);
    eval_s += pass.wall_s;
    report.failed += pass.failures;
  }
  report.add("service.eval_ms",
             eval_s * 1e3 / static_cast<double>(matrix.size()), "ms");

  // The service itself: every request twice, so the second copies are
  // deduped within a wave or served from the store.
  const std::string journal = scratch_dir + "/probe-journal.jsonl";
  std::filesystem::remove(journal);
  service::ServiceStats stats;
  double submit_s = 0.0;
  {
    service::ServiceConfig config;
    config.workers = 1;
    config.store_path = journal;
    service::EvalService daemon(config);
    std::vector<std::future<service::EvalResponse>> futures;
    for (std::size_t copy = 0; copy < 2; ++copy) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        service::EvalRequest request = requests[i];
        request.id = std::to_string(copy);
        request.id += '-';
        request.id += std::to_string(i);
        const ScopedSpan span(spans, "service.submit", i);
        const Clock::time_point start = Clock::now();
        futures.push_back(daemon.submit(std::move(request)));
        submit_s += seconds_between(start, Clock::now());
      }
    }
    for (auto& future : futures) {
      if (future.get().status != service::Status::kOk) {
        report.mismatch("service probe request failed");
      }
    }
    daemon.shutdown();
    stats = daemon.stats();
  }
  report.add("service.submit_us",
             submit_s * 1e6 / static_cast<double>(2 * requests.size()), "us");
  report.add("service.store.open_ms", time_store_open(journal, spans), "ms");
  report.add("service.store.publish_us",
             time_store_publish(scratch_dir + "/probe-publish.jsonl", spans),
             "us");
  add_service_counters(report, stats);
  std::filesystem::remove(journal);
}

void add_service_counters(Report& report, const service::ServiceStats& stats) {
  report.add("service.store.hit_ratio", stats.store.hit_rate(), "1");
  report.add("service.evaluated", static_cast<double>(stats.evaluated),
             "count");
  report.add("service.deduped", static_cast<double>(stats.deduped), "count");
  report.add("service.waves", static_cast<double>(stats.waves), "count");
}

void add_self_times(Report& report, const SpanRecorder& spans) {
  static const char* const kModules[] = {
      "isa",     "mem",    "smt",    "engine",   "mpisim",
      "cluster", "policy", "runner", "simcheck", "service"};
  const std::vector<Span> recorded = spans.spans();
  const auto self = module_self_seconds(recorded);
  for (const char* module : kModules) {
    double seconds = 0.0;
    for (const auto& [name, value] : self) {
      if (name == module) seconds = value;
    }
    report.add(std::string(module) + ".self_ms", seconds * 1e3, "ms");
  }
  report.note("traced run: " + std::to_string(recorded.size()) + " spans");
}

}  // namespace perfbench
