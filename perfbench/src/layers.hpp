// Per-layer probes of the traced run: timed calls from the benchmark into
// each module's public functions, on the inputs of the workload at hand.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "measure.hpp"
#include "mpisim/hooks.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "runner/batch.hpp"
#include "smt/sampler.hpp"
#include "suite.hpp"

namespace perfbench {

/// Epoch count and time spent in a policy's callbacks.
struct PolicyTally {
  std::mutex mutex;
  std::uint64_t epochs = 0;  ///< guarded by mutex
  double seconds = 0.0;      ///< guarded by mutex
};

/// Forwards every callback to `inner`, timing each one as a
/// "policy.start" / "policy.epoch" span and adding it to `tally`.
[[nodiscard]] std::unique_ptr<mpisim::BalancePolicy> timed_policy(
    std::unique_ptr<mpisim::BalancePolicy> inner, SpanRecorder& spans,
    PolicyTally& tally, std::uint64_t run_id);

/// Adds policy.epoch_us and policy.epochs.
void add_policy_metrics(Report& report, PolicyTally& tally);

/// The kernels the scenarios compute with, sorted by id.
[[nodiscard]] std::vector<isa::KernelId> kernel_set(
    const std::vector<ScenarioPtr>& scenarios);

/// A chip load together with the chip it runs on.
struct PlacedLoad {
  smt::ChipConfig chip;
  smt::ChipLoad load;
};

/// Each scenario's opening chip load (every rank on its first compute
/// kernel at MEDIUM; one per node for clusters), most frequent first,
/// at most `limit` of them.
[[nodiscard]] std::vector<PlacedLoad> frequent_loads(
    const std::vector<ScenarioPtr>& scenarios, std::size_t limit);

/// Bottom of the ladder: isa.streamgen.ns_per_op, mem.hierarchy.ns_per_access,
/// smt.chip.ns_per_cycle and smt.sampler.construct_ms.
void probe_cycle_model(const std::vector<isa::KernelId>& kernels,
                       const std::vector<PlacedLoad>& loads,
                       SpanRecorder& spans, Report& report);

/// Engine rungs on warm samplers: every cell of `matrix` run directly
/// through mpisim::Engine or cluster::ClusterEngine, once to warm a
/// sampler attached to `warm`'s domain cache and once timed. Adds
/// mpisim.engine.*, cluster.engine.*, and returns the summed timed wall
/// (seconds) for runner.overhead_ms.
double probe_engines(const std::vector<Entry>& matrix,
                     const runner::BatchOptions& warm, SpanRecorder& spans,
                     Report& report);

/// Service rungs for workloads that do not run the service themselves:
/// simcheck.build_us, service.submit_us, service.eval_ms,
/// service.store.open_ms / publish_us and the service counters, on a
/// small request set drawn from the workload seed.
void probe_service(std::uint64_t seed, const std::string& scratch_dir,
                   SpanRecorder& spans, Report& report);

/// Median wall time of ResultStore::open (journal replay) on `journal`.
[[nodiscard]] double time_store_open(const std::string& journal,
                                     SpanRecorder& spans);

/// Mean wall time of ResultStore::publish (append + flush) into a fresh
/// journal at `journal`, which is removed afterwards.
[[nodiscard]] double time_store_publish(const std::string& journal,
                                        SpanRecorder& spans);

/// Adds service.store.hit_ratio, service.evaluated, service.deduped and
/// service.waves.
void add_service_counters(Report& report, const service::ServiceStats& stats);

/// Adds <module>.self_ms for the fixed module list (0 where a module has
/// no spans) and notes the span count.
void add_self_times(Report& report, const SpanRecorder& spans);

}  // namespace perfbench
