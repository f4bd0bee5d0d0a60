// Multithreaded batch-run harness.
//
// The paper's tables are built from many independent (workload, placement,
// priority) simulations; BatchRunner executes such a batch on a pool of
// worker threads with work stealing, so reproducing Tables IV-VI uses every
// host core instead of one.
//
// Determinism guarantee: the per-run results are identical for ANY worker
// count, including 1. Three properties make this hold:
//   * run ordering is stable — outcomes[i] always corresponds to specs[i],
//     whatever order the workers picked runs up in;
//   * every run is self-contained — the engine, policy and RNG state are
//     constructed per run from the spec, never shared between runs;
//   * samplers are never shared mutably across threads — each worker owns a
//     private ThroughputSampler per "sampler domain" (identical chip config
//     and sampler options). Workers in one domain share measured results
//     through a mutex-guarded SampleCache, which is safe because
//     ThroughputSampler::measure() is a pure function of (chip config,
//     options, load): whichever worker computes a key first publishes the
//     exact value every other worker would have computed.
// Only the *counters* (local/shared hit splits, the cache hit rate) depend
// on scheduling; consumers that require byte-identical output must report
// results, not counters — see runner/report.hpp.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/engine.hpp"
#include "common/stats.hpp"
#include "mpisim/engine.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/phase.hpp"
#include "smt/sampler.hpp"

namespace smtbal::runner {

/// One simulation in a batch.
struct RunSpec {
  std::string label;              ///< carried into the outcome and reports
  mpisim::Application app;
  mpisim::Placement placement;
  mpisim::EngineConfig config{};
  /// Optional policy factory, invoked once per run on the executing worker
  /// (policies are stateful, so they cannot be shared between runs).
  std::function<std::unique_ptr<mpisim::BalancePolicy>()> make_policy;
  /// Engaged (both together) = a multi-node run: the spec goes through
  /// cluster::ClusterEngine with these instead of (placement, config),
  /// and the outcome carries the cluster run's flat (global-rank) view.
  /// Sampler domains key on the per-node chip, so flat and cluster runs
  /// of the same chip share measured loads.
  std::optional<cluster::ClusterPlacement> cluster_placement;
  std::optional<cluster::ClusterConfig> cluster_config;
};

/// Result of one run. Outcomes are returned in spec order.
struct RunOutcome {
  std::string label;
  std::size_t index = 0;          ///< position in the spec vector
  bool ok = false;
  std::string error;              ///< exception message when !ok
  std::optional<mpisim::RunResult> result;  ///< engaged only when ok
  /// Cluster runs only: the per-node aggregates (including migration
  /// counters) from ClusterRunResult. Empty for flat runs.
  std::vector<cluster::NodeStats> node_stats;
};

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). Always
  /// clamped to the number of runs.
  unsigned jobs = 0;
  /// FIFO-eviction capacity applied to every SampleCache the runner
  /// creates (smt::SampleCache::set_capacity); 0 = unbounded, the
  /// historical behaviour. Results are identical either way — eviction
  /// only re-measures — so this is a memory bound, not a semantic knob.
  std::size_t cache_capacity = 0;
  /// When set, the runner asks this provider for the shared cache of each
  /// sampler domain instead of creating a fresh one per run() call.
  /// Long-lived drivers (the evaluation service) use it to keep domain
  /// caches warm across batches; the provider may return nullptr to
  /// disable sharing for a domain. The provider must honour the
  /// one-cache-per-domain invariant documented on smt::SampleCache.
  std::function<std::shared_ptr<smt::SampleCache>(
      const smt::ChipConfig&, const smt::ThroughputSampler::Options&)>
      cache_provider{};
};

struct BatchResult {
  std::vector<RunOutcome> runs;   ///< one per spec, spec order
  RunningStats exec_time;         ///< over successful runs, spec order
  RunningStats imbalance;         ///< over successful runs, spec order
  std::size_t failures = 0;
  unsigned jobs = 0;              ///< workers actually used
  /// Aggregate shared-cache counters summed over all sampler domains.
  /// Scheduling-dependent (see the determinism note above): report these,
  /// never compare them across runs.
  smt::SampleCacheStats cache_stats;
  /// Aggregate sampler counters summed over every worker-local sampler and
  /// every per-shape sampler a heterogeneous cluster run built: lookups,
  /// measured loads (misses, with their per-core split) and local misses
  /// served by the shared cache. Scheduling-dependent, like cache_stats.
  smt::SamplerStats sampler_stats;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {}) : options_(options) {}

  /// Executes every spec and returns per-run outcomes (spec order) plus
  /// aggregate statistics. A run that throws is captured as a failed
  /// outcome; the rest of the batch still executes.
  [[nodiscard]] BatchResult run(const std::vector<RunSpec>& specs) const;

  /// Parallel raw-sampler queries: measures every load on `chip` and
  /// returns the results in load order. Workers share one SampleCache, so
  /// duplicate loads are measured once. Same determinism guarantee as
  /// run().
  [[nodiscard]] std::vector<smt::SampleResult> sample(
      const smt::ChipConfig& chip, const smt::ThroughputSampler::Options& options,
      const std::vector<smt::ChipLoad>& loads) const;

  [[nodiscard]] const BatchOptions& options() const { return options_; }

 private:
  BatchOptions options_;
};

/// Command-line options shared by the ported bench/example binaries.
struct CliOptions {
  unsigned jobs = 0;        ///< --jobs N (0 = all host cores)
  std::string json_path;    ///< --json FILE (empty = no JSON output)
  /// --cache-capacity N: FIFO bound on every shared SampleCache
  /// (BatchOptions::cache_capacity); 0 = unbounded.
  std::size_t cache_capacity = 0;
  /// Positional arguments left after the flags, in order.
  std::vector<std::string> positional;
};

/// Parses `--jobs N` / `--jobs=N`, `--json FILE` / `--json=FILE` and
/// `--cache-capacity N` / `--cache-capacity=N`.
/// Throws InvalidArgument on a malformed flag.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv);

/// Parses a `--jobs` value: the full string must be a base-10 unsigned
/// integer (no sign, no whitespace, no trailing garbage). Throws
/// InvalidArgument with distinct messages for non-numeric input and for
/// values that do not fit an `unsigned`.
[[nodiscard]] unsigned parse_jobs(const std::string& value);

/// Resolves a requested worker count against an item count: 0 means all
/// host cores, and the result is clamped to [1, num_items] (at least one
/// worker even for an empty batch).
[[nodiscard]] unsigned resolve_jobs(unsigned requested, std::size_t num_items);

/// Runs fn(item, worker) for every item in [0, num_items) on `jobs`
/// threads with work stealing (the scheduling loop behind BatchRunner,
/// exposed for other embarrassingly parallel drivers such as
/// simcheck's fuzz batches). Items are distributed round-robin; an idle
/// worker steals from the back of its neighbours' deques. `fn` must not
/// throw — per-item errors are the caller's to capture.
void parallel_for_stealing(unsigned jobs, std::size_t num_items,
                           const std::function<void(std::size_t, unsigned)>& fn);

}  // namespace smtbal::runner
