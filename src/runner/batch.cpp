#include "runner/batch.hpp"

#include <algorithm>
#include <charconv>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"

namespace smtbal::runner {

namespace {

/// A sampler domain: the equivalence class of specs whose samplers are
/// interchangeable. measure() is pure in (chip, options, load), so results
/// may be shared freely within a domain and never across domains.
struct SamplerDomain {
  smt::ChipConfig chip;
  smt::ThroughputSampler::Options options;
  std::shared_ptr<smt::SampleCache> cache;  ///< nullptr when sharing is off
};

}  // namespace

unsigned resolve_jobs(unsigned requested, std::size_t num_items) {
  unsigned jobs = requested != 0 ? requested : std::thread::hardware_concurrency();
  jobs = std::max(jobs, 1u);
  if (num_items < jobs) jobs = static_cast<unsigned>(std::max<std::size_t>(num_items, 1));
  return jobs;
}

void parallel_for_stealing(unsigned jobs, std::size_t num_items,
                           const std::function<void(std::size_t, unsigned)>& fn) {
  if (num_items == 0) return;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < num_items; ++i) fn(i, 0);
    return;
  }

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::size_t> items;
  };
  std::vector<WorkerQueue> queues(jobs);
  for (std::size_t i = 0; i < num_items; ++i) {
    queues[i % jobs].items.push_back(i);
  }

  auto worker = [&](unsigned self) {
    for (;;) {
      std::size_t item = 0;
      bool found = false;
      {
        // Own queue: take from the front (the round-robin order).
        WorkerQueue& own = queues[self];
        const std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.items.empty()) {
          item = own.items.front();
          own.items.pop_front();
          found = true;
        }
      }
      // Steal from the back of the first non-empty victim. No work is ever
      // added after start-up, so a full empty scan means we are done.
      for (unsigned v = 1; !found && v < jobs; ++v) {
        WorkerQueue& victim = queues[(self + v) % jobs];
        const std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.items.empty()) {
          item = victim.items.back();
          victim.items.pop_back();
          found = true;
        }
      }
      if (!found) return;
      fn(item, self);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();
}

BatchResult BatchRunner::run(const std::vector<RunSpec>& specs) const {
  const unsigned jobs = resolve_jobs(options_.jobs, specs.size());

  // Group specs into sampler domains. A cluster spec's domain is its
  // per-node engine configuration (every node shares one sampler).
  std::vector<SamplerDomain> domains;
  std::vector<std::size_t> domain_of_spec(specs.size(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    SMTBAL_REQUIRE(spec.cluster_placement.has_value() ==
                       spec.cluster_config.has_value(),
                   "RunSpec cluster_placement and cluster_config must be "
                   "engaged together");
    const mpisim::EngineConfig& node_config =
        spec.cluster_config ? spec.cluster_config->node : spec.config;
    std::size_t d = 0;
    for (; d < domains.size(); ++d) {
      if (domains[d].chip == node_config.chip &&
          domains[d].options == node_config.sampler) {
        break;
      }
    }
    if (d == domains.size()) {
      std::shared_ptr<smt::SampleCache> cache;
      if (options_.cache_provider) {
        cache = options_.cache_provider(node_config.chip, node_config.sampler);
      } else {
        cache = std::make_shared<smt::SampleCache>();
        cache->set_capacity(options_.cache_capacity);
      }
      domains.push_back(
          SamplerDomain{node_config.chip, node_config.sampler, std::move(cache)});
    }
    domain_of_spec[i] = d;
  }

  BatchResult batch;
  batch.jobs = jobs;
  batch.runs.resize(specs.size());

  // Each worker lazily builds one private sampler per domain it touches
  // and reuses it across its runs (worker-local memoisation on top of the
  // shared cache).
  std::vector<std::vector<std::shared_ptr<smt::ThroughputSampler>>> samplers(
      jobs, std::vector<std::shared_ptr<smt::ThroughputSampler>>(domains.size()));
  // Counters of the per-shape samplers that heterogeneous cluster runs
  // build and drop inside their engines, per worker.
  std::vector<smt::SamplerStats> shape_stats(jobs);

  parallel_for_stealing(jobs, specs.size(), [&](std::size_t i, unsigned worker) {
    const RunSpec& spec = specs[i];
    RunOutcome& out = batch.runs[i];
    out.label = spec.label;
    out.index = i;
    try {
      std::shared_ptr<smt::ThroughputSampler>& sampler =
          samplers[worker][domain_of_spec[i]];
      if (sampler == nullptr) {
        const SamplerDomain& domain = domains[domain_of_spec[i]];
        sampler = std::make_shared<smt::ThroughputSampler>(domain.chip,
                                                           domain.options);
        sampler->attach_shared_cache(domain.cache);
      }
      std::unique_ptr<mpisim::BalancePolicy> policy;
      if (spec.make_policy) policy = spec.make_policy();
      if (spec.cluster_config) {
        cluster::ClusterEngine engine(spec.app, *spec.cluster_placement,
                                      *spec.cluster_config, sampler);
        if (policy != nullptr) engine.set_policy(policy.get());
        cluster::ClusterRunResult cluster_result = engine.run();
        shape_stats[worker] += engine.shape_sampler_stats();
        out.node_stats = std::move(cluster_result.nodes);
        out.result = std::move(cluster_result.flat);
      } else {
        mpisim::Engine engine(spec.app, spec.placement, spec.config, sampler);
        if (policy != nullptr) engine.set_policy(policy.get());
        out.result = engine.run();
      }
      out.ok = true;
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = e.what();
    }
  });

  // Aggregate in spec order so the running statistics are reproducible.
  for (const RunOutcome& out : batch.runs) {
    if (!out.ok) {
      ++batch.failures;
      continue;
    }
    batch.exec_time.add(out.result->exec_time);
    batch.imbalance.add(out.result->imbalance);
  }
  for (const SamplerDomain& domain : domains) {
    if (domain.cache == nullptr) continue;
    const smt::SampleCacheStats stats = domain.cache->stats();
    batch.cache_stats.hits += stats.hits;
    batch.cache_stats.misses += stats.misses;
    batch.cache_stats.inserts += stats.inserts;
    batch.cache_stats.evictions += stats.evictions;
    // Peak sizes of independent domains do not sum (they peak at
    // different moments); report the largest single-domain high-water.
    batch.cache_stats.peak_size =
        std::max(batch.cache_stats.peak_size, stats.peak_size);
  }
  for (const auto& worker_samplers : samplers) {
    for (const auto& sampler : worker_samplers) {
      if (sampler != nullptr) batch.sampler_stats += sampler->stats();
    }
  }
  for (const smt::SamplerStats& stats : shape_stats) {
    batch.sampler_stats += stats;
  }
  return batch;
}

std::vector<smt::SampleResult> BatchRunner::sample(
    const smt::ChipConfig& chip, const smt::ThroughputSampler::Options& options,
    const std::vector<smt::ChipLoad>& loads) const {
  const unsigned jobs = resolve_jobs(options_.jobs, loads.size());
  std::shared_ptr<smt::SampleCache> cache;
  if (options_.cache_provider) {
    cache = options_.cache_provider(chip, options);
  } else {
    cache = std::make_shared<smt::SampleCache>();
    cache->set_capacity(options_.cache_capacity);
  }

  std::vector<smt::SampleResult> results(loads.size());
  std::vector<std::unique_ptr<smt::ThroughputSampler>> samplers(jobs);

  parallel_for_stealing(jobs, loads.size(), [&](std::size_t i, unsigned worker) {
    std::unique_ptr<smt::ThroughputSampler>& sampler = samplers[worker];
    if (sampler == nullptr) {
      sampler = std::make_unique<smt::ThroughputSampler>(chip, options);
      sampler->attach_shared_cache(cache);
    }
    results[i] = sampler->sample(loads[i]);
  });
  return results;
}

unsigned parse_jobs(const std::string& value) {
  // std::stoul would accept leading whitespace, a sign, and trailing
  // garbage ("4x" -> 4), and collapse out-of-range values into the same
  // generic error as non-numeric input. from_chars over the full string
  // rejects all of those, and lets the two failure modes carry distinct
  // messages.
  unsigned jobs = 0;
  const char* first = value.data();
  const char* last = first + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, jobs);
  if (ec == std::errc::result_out_of_range) {
    throw InvalidArgument("--jobs value out of range (max " +
                          std::to_string(std::numeric_limits<unsigned>::max()) +
                          "), got '" + value + "'");
  }
  if (ec != std::errc{} || ptr != last) {
    throw InvalidArgument("--jobs expects a non-negative integer, got '" +
                          value + "'");
  }
  return jobs;
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  auto value_of = [&](const std::string& arg, const std::string& flag,
                      int& index) -> std::string {
    if (arg == flag) {
      SMTBAL_REQUIRE(index + 1 < argc, flag + " needs a value");
      return argv[++index];
    }
    return arg.substr(flag.size() + 1);  // "--flag=value"
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      cli.jobs = parse_jobs(value_of(arg, "--jobs", i));
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      cli.json_path = value_of(arg, "--json", i);
      SMTBAL_REQUIRE(!cli.json_path.empty(), "--json needs a file path");
    } else if (arg == "--cache-capacity" ||
               arg.rfind("--cache-capacity=", 0) == 0) {
      const std::string value = value_of(arg, "--cache-capacity", i);
      std::size_t capacity = 0;
      const char* first = value.data();
      const char* last = first + value.size();
      const auto [ptr, ec] = std::from_chars(first, last, capacity);
      if (ec != std::errc{} || ptr != last) {
        throw InvalidArgument(
            "--cache-capacity expects a non-negative integer, got '" + value +
            "'");
      }
      cli.cache_capacity = capacity;
    } else {
      cli.positional.push_back(arg);
    }
  }
  return cli;
}

}  // namespace smtbal::runner
