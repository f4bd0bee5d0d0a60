// Differential checks and the failing-case shrinker.
//
// Three differentials, all demanding *bit-identical* observables (exact
// double equality — the compared pipelines must perform the same
// floating-point operations in the same order, so any deviation is a
// scheduling or caching bug, not roundoff):
//
//   * engine vs oracle — the production event-heap engine against the
//     naive straight-line oracle (oracle.hpp), single-node scenarios;
//   * flat vs cluster(M=1) — mpisim::Engine against a one-node
//     cluster::ClusterEngine on the identical scenario. Both run the same
//     engine, so this guards the cluster overlay against its base: its
//     message-pricing overrides at one node and the comm-graph observer
//     on the bus must not move a single result, under any registry policy;
//   * factorised vs full chip — every chip load the oracle sampled,
//     measured by ThroughputSampler::sample() (core by core wherever the
//     no-interference certificate holds) against the whole-chip
//     reference measurement.
//
// check_spec() runs every differential applicable to a spec with the
// invariant checker attached (multi-node specs run under the invariant
// checker alone, including per-link interconnect monotonicity) and
// returns the first discrepancy as a printable message. Every engine that
// check_spec() and check_policy_spec() run goes through one of two
// checked-run helpers, flat or cluster; the cluster one also watches the
// interconnect. shrink_spec()
// greedily minimises a failing spec one shape dimension at a time.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/engine.hpp"
#include "mpisim/engine.hpp"
#include "simcheck/oracle.hpp"
#include "simcheck/scenario.hpp"

namespace smtbal::simcheck {

/// First difference between the engine's result and the oracle's, or
/// nullopt when every compared observable (exec time, trace timelines,
/// metrics, event counts, imbalance, priority resets) is identical.
/// Sampler statistics are not compared (the oracle never memoises).
[[nodiscard]] std::optional<std::string> diff_engine_vs_oracle(
    const mpisim::RunResult& engine, const OracleResult& oracle);

/// First difference between a flat run and a cluster(M=1) run of the
/// same scenario. Compares the same observables as the oracle diff.
[[nodiscard]] std::optional<std::string> diff_flat_vs_cluster(
    const mpisim::RunResult& flat, const cluster::ClusterRunResult& clustered);

/// First load whose sampled rates differ from a full-chip measurement
/// (ThroughputSampler::measure_full_chip) on a fresh sampler for `chip`
/// and `options`, or nullopt when all of `loads` agree bit for bit.
[[nodiscard]] std::optional<std::string> diff_factorised_vs_full_chip(
    const smt::ChipConfig& chip, const smt::ThroughputSampler::Options& options,
    const std::vector<smt::ChipLoad>& loads);

/// Builds and runs the full battery for one spec: single-node specs run
/// engine-vs-oracle, factorised-vs-full-chip over the oracle's loads and
/// flat-vs-cluster(M=1); multi-node specs run the
/// cluster engine under the invariant checker (with interconnect
/// watching). Invariant violations and unexpected exceptions are
/// reported as failures. nullopt = the spec passes.
[[nodiscard]] std::optional<std::string> check_spec(const ScenarioSpec& spec);

/// Differential for one registry policy (policy::Registry spec string,
/// e.g. "allocation" or "dynamic:max_diff=2") over one scenario. The
/// scenario runs with a fresh registry-built policy instance per engine;
/// its static priorities are dropped (the policy owns actuation) and a
/// vanilla flavor is forced off (policies use the patched kernel's full
/// 1..6 band). Single-node specs demand bit-identical flat vs
/// cluster(M=1) results — the oracle cannot model reactive policies, so
/// it sits this one out; multi-node specs run the cluster engine under
/// the invariant checker. nullopt = the spec passes under the policy.
[[nodiscard]] std::optional<std::string> check_policy_spec(
    const ScenarioSpec& spec, const std::string& policy_spec);

/// Greedy shrink: repeatedly tries shape-reducing mutations (fewer
/// blocks, fewer ranks, one node, toggles off, narrower SMT) and keeps
/// any for which `still_fails` holds, until no mutation helps or the
/// attempt budget is exhausted. Returns the (sanitized) minimal spec.
[[nodiscard]] ScenarioSpec shrink_spec(
    ScenarioSpec spec,
    const std::function<bool(const ScenarioSpec&)>& still_fails,
    std::size_t max_attempts = 200);

}  // namespace smtbal::simcheck
