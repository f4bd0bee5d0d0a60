// Reference oracle for the flat (single-node) engine.
//
// oracle_run() replays an Application/Placement/EngineConfig with a
// deliberately naive simulator and returns the same observables as
// Engine::run(). Where the production engine earns its speed — a binary
// heap ordered by (time, seq), lazy generation-counter invalidation of
// predictions, the per-node load-key skip in refresh_rates(), deferred
// fresh-compute pushes — the oracle does the dumbest correct thing: an
// unsorted vector of pending events popped by linear min-scan, stale
// compute predictions erased eagerly at invalidation time, and the chip
// rates re-derived from the sampler on every event with no load-key
// memoisation. The two implementations share no event-loop code, so a
// bug in either scheduling strategy shows up as a divergence; simcheck's
// fuzzer compares them bit-for-bit (times, traces, metrics, event
// counts) over randomized scenarios.
//
// What the oracle intentionally shares with the engine (the seams under
// test are the event loop and its caches, not these models): the
// cycle-level ThroughputSampler (sample() is a pure function of the
// load, so both sides see identical bits), os::KernelModel,
// os::NoiseSource, the intra-node Network cost arithmetic, and the
// Tracer/MetricsObserver result containers.
//
// Domain restrictions (asserted by the scenario generator, documented
// here):
//   * single node — cluster runs are cross-checked differently (a
//     cluster of M=1 must equal the flat engine bit-for-bit);
//   * static priorities only (applied before the run starts, exactly
//     like policy::StaticPriorityPolicy) — no epoch-reactive policies;
//   * no compute phase may use the configured spin kernel: a compute
//     segment whose kernel equals the spin kernel leaves the chip load
//     key unchanged, and the engine's key-skip then defers the
//     prediction push in a way the oracle's always-resample loop does
//     not reproduce (the push *order* differs for simultaneous events).
#pragma once

#include <vector>

#include "mpisim/engine.hpp"
#include "mpisim/metrics.hpp"
#include "mpisim/phase.hpp"
#include "smt/sampler.hpp"
#include "trace/tracer.hpp"

namespace smtbal::simcheck {

/// The oracle's view of a finished run: every field a differential check
/// compares against mpisim::RunResult. Sampler statistics are absent by
/// design — the oracle never memoises, so its hit/miss counters are
/// meaningless to compare.
struct OracleResult {
  trace::Tracer trace{};
  SimTime exec_time = 0.0;
  double imbalance = 0.0;
  std::uint64_t events = 0;
  std::uint64_t priority_resets = 0;
  mpisim::MetricsReport metrics;
  /// Every distinct chip load the run sampled, in first-sampled order (the
  /// input of diff_factorised_vs_full_chip).
  std::vector<smt::ChipLoad> loads;

  OracleResult() = default;
  OracleResult(OracleResult&&) = default;
  OracleResult& operator=(OracleResult&&) = default;
  OracleResult(const OracleResult&) = delete;
  OracleResult& operator=(const OracleResult&) = delete;
};

/// Replays the run naively. `initial_priorities` (one level per rank,
/// empty = leave every rank at the default) is applied before the first
/// phase through the same kernel interface a static policy uses.
/// Throws like Engine::run would (invalid config, deadlock, runaway).
[[nodiscard]] OracleResult oracle_run(
    const mpisim::Application& app, const mpisim::Placement& placement,
    const mpisim::EngineConfig& config,
    const std::vector<int>& initial_priorities = {});

}  // namespace smtbal::simcheck
