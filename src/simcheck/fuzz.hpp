// The fuzzing loop: seed range in, divergence reports out.
//
// run_fuzz() draws one scenario per seed, runs every differential
// applicable to it (differ.hpp) on the batch runner's worker pool, and
// collects the seeds that diverged. Failures are deterministic: the
// printed spec line replays the exact scenario regardless of worker
// count or scheduling. Each failure is optionally shrunk to a minimal
// still-failing spec before reporting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simcheck/scenario.hpp"

namespace smtbal::simcheck {

enum class FuzzMode {
  kAny,   ///< random node counts: differentials + cluster invariants
  kFlat,  ///< single-node only: engine-vs-oracle + flat-vs-cluster(M=1)
};

struct FuzzOptions {
  std::uint64_t seed_base = 1;  ///< first seed; seeds are consecutive
  std::size_t count = 100;      ///< number of seeds to run
  /// Soft wall-clock budget in seconds; 0 = unlimited. Checked between
  /// scheduling batches, so a run overshoots by at most one batch.
  double seconds = 0.0;
  unsigned jobs = 0;            ///< worker threads; 0 = all host cores
  FuzzMode mode = FuzzMode::kAny;
  bool shrink = true;           ///< minimise each failure before reporting
  /// Registry policy specs (e.g. "allocation", "dynamic:max_diff=2") to
  /// additionally run each scenario under, via differ.hpp's
  /// check_policy_spec. Ignored when a custom `check` predicate is
  /// supplied to run_fuzz.
  std::vector<std::string> policies;
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  ScenarioSpec spec;            ///< as generated from `seed`
  ScenarioSpec shrunk;          ///< == spec when shrinking is off/failed
  std::string message;          ///< first divergence of the original spec
};

struct FuzzReport {
  std::uint64_t iterations = 0;  ///< seeds actually executed
  std::vector<FuzzFailure> failures;  ///< sorted by seed
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the campaign. `check` decides pass/fail per spec (defaults to
/// differ.hpp's check_spec; tests substitute predicates with injected
/// bugs). Deterministic modulo the wall-clock budget: a time-boxed run
/// may cover fewer seeds, but any failure it reports is replayable.
[[nodiscard]] FuzzReport run_fuzz(
    const FuzzOptions& options,
    const std::function<std::optional<std::string>(const ScenarioSpec&)>&
        check = {});

}  // namespace smtbal::simcheck
