// One-worker batch passes timed from outside the runner, shared by the
// sweeps and by service-open's reference evaluations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "runner/batch.hpp"
#include "smt/sampler.hpp"

namespace perfbench {

/// One SampleCache per sampler domain, handed to BatchRunner through
/// BatchOptions::cache_provider. Inserts count cycle-level measurements
/// exactly, including those of ClusterEngine's per-shape samplers.
class CacheBank {
 public:
  [[nodiscard]] std::shared_ptr<smt::SampleCache> get(
      const smt::ChipConfig& chip,
      const smt::ThroughputSampler::Options& options);
  /// Hits, misses and inserts summed over every domain.
  [[nodiscard]] smt::SampleCacheStats stats() const;
  /// One-worker batch options whose cache provider is this bank. The bank
  /// must outlive every run made with them.
  [[nodiscard]] runner::BatchOptions options();

 private:
  struct Domain {
    smt::ChipConfig chip;
    smt::ThroughputSampler::Options options;
    std::shared_ptr<smt::SampleCache> cache;
  };
  mutable std::mutex mutex_;
  std::vector<Domain> domains_;  ///< guarded by mutex_
};

/// Run boundaries of a one-worker batch, taken from the policy factory
/// every run calls first: run i lasts from its factory call to run i+1's
/// (the last run to the batch's return). Also samples the bank's insert
/// count there and, when spans are on, opens an "engine.run" span per run.
///
/// An optional between-runs task runs inside each factory call, after the
/// previous run's end is stamped and before the next run's start is: its
/// time counts in no run's latency and is reported by interleaved_s().
class RunClock {
 public:
  /// `tally` non-null = wrap every policy in a timing wrapper.
  RunClock(SpanRecorder& spans, PolicyTally* tally)
      : spans_(spans), tally_(tally) {}
  RunClock(const RunClock&) = delete;
  RunClock& operator=(const RunClock&) = delete;

  /// The hook to build specs with; it refers to this clock.
  [[nodiscard]] RunHook hook();
  void set_between_runs(std::function<void()> task) {
    between_runs_ = std::move(task);
  }
  void begin(CacheBank& bank, std::size_t runs);
  void end(Clock::time_point finish);
  [[nodiscard]] std::vector<double> latency_ms() const;
  /// Wall time spent in the between-runs task since begin(), seconds.
  [[nodiscard]] double interleaved_s() const;
  /// Cycle-level measurements (bank inserts) made during each run.
  [[nodiscard]] std::vector<std::uint64_t> measurements_per_run() const;

 private:
  SpanRecorder& spans_;
  PolicyTally* tally_;
  std::function<void()> between_runs_;
  CacheBank* bank_ = nullptr;
  std::vector<Clock::time_point> entered_;  ///< factory call = previous run's end
  std::vector<Clock::time_point> starts_;
  std::vector<std::uint64_t> inserts_;
  Clock::time_point finish_{};
  std::uint64_t finish_inserts_ = 0;
  std::int64_t open_run_ = -1;
};

/// The outputs of one run that the digests and reference checks cover.
struct RunValues {
  bool ok = false;
  double exec_time = 0.0;
  double imbalance = 0.0;
  std::uint64_t events = 0;
  std::uint64_t priority_resets = 0;
};

/// What one batch pass did.
struct Pass {
  double wall_s = 0.0;  ///< without the clock's between-runs task
  std::vector<double> latency_ms;   ///< per run, spec order
  std::uint64_t measurements = 0;   ///< SampleCache inserts during the pass
  std::vector<std::uint64_t> run_measurements;  ///< per run, spec order
  std::uint64_t failures = 0;
  std::vector<std::string> errors;
  std::vector<RunValues> values;  ///< per run, spec order
  std::string digest;  ///< over label, exec_time, imbalance, events per run
  std::uint64_t events = 0;
  std::uint64_t intervals = 0;   ///< trace intervals over all runs
  std::uint64_t migrations = 0;  ///< cross-node migrations over all runs
};

/// Runs `specs` (built with `clock`'s hook) at one worker on `bank`.
[[nodiscard]] Pass run_pass(const std::vector<runner::RunSpec>& specs,
                            CacheBank& bank, RunClock& clock,
                            SpanRecorder& spans);

}  // namespace perfbench
