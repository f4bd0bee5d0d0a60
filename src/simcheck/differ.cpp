#include "simcheck/differ.hpp"

#include <exception>
#include <iomanip>
#include <optional>
#include <sstream>
#include <type_traits>
#include <vector>

#include "policy/registry.hpp"
#include "policy/repartition.hpp"
#include "policy/static_priority.hpp"
#include "simcheck/invariants.hpp"

namespace smtbal::simcheck {

namespace {

/// Prints a double with enough digits to round-trip, so a divergence
/// message pins down the exact bits that differ.
std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// Appends "<what>: <a> vs <b>" to `out` on inequality. Exact equality
/// on doubles is intentional: see the header.
template <typename T>
bool same(std::optional<std::string>& out, const std::string& what, const T& a,
          const T& b) {
  if (a == b) return true;
  if (!out) {
    std::ostringstream os;
    if constexpr (std::is_floating_point_v<T>) {
      os << what << ": " << fmt(a) << " vs " << fmt(b);
    } else {
      os << what << ": " << a << " vs " << b;
    }
    out = os.str();
  }
  return false;
}

std::optional<std::string> diff_traces(const trace::Tracer& a,
                                       const trace::Tracer& b) {
  std::optional<std::string> out;
  if (!same(out, "trace.num_ranks", a.num_ranks(), b.num_ranks())) return out;
  if (!same(out, "trace.end_time", a.end_time(), b.end_time())) return out;
  for (std::size_t r = 0; r < a.num_ranks(); ++r) {
    const auto& ta = a.timeline(RankId{static_cast<std::uint32_t>(r)});
    const auto& tb = b.timeline(RankId{static_cast<std::uint32_t>(r)});
    if (!same(out, "rank " + std::to_string(r) + " interval count", ta.size(),
              tb.size())) {
      return out;
    }
    for (std::size_t i = 0; i < ta.size(); ++i) {
      const std::string at =
          "rank " + std::to_string(r) + " interval " + std::to_string(i);
      if (!same(out, at + " begin", ta[i].begin, tb[i].begin)) return out;
      if (!same(out, at + " end", ta[i].end, tb[i].end)) return out;
      if (!same(out, at + " state", static_cast<int>(ta[i].state),
                static_cast<int>(tb[i].state))) {
        return out;
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> diff_metrics(const mpisim::MetricsReport& a,
                                        const mpisim::MetricsReport& b) {
  std::optional<std::string> out;
  if (!same(out, "metrics.ranks size", a.ranks.size(), b.ranks.size())) {
    return out;
  }
  if (!same(out, "metrics.epochs", a.epochs, b.epochs)) return out;
  for (std::size_t k = 0; k < a.events_by_kind.size(); ++k) {
    if (!same(out, "events_by_kind[" + std::to_string(k) + "]",
              a.events_by_kind[k], b.events_by_kind[k])) {
      return out;
    }
  }
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const std::string at = "metrics rank " + std::to_string(r) + " ";
    const auto& ma = a.ranks[r];
    const auto& mb = b.ranks[r];
    if (!same(out, at + "compute", ma.compute, mb.compute)) return out;
    if (!same(out, at + "wait", ma.wait, mb.wait)) return out;
    if (!same(out, at + "spin", ma.spin, mb.spin)) return out;
    if (!same(out, at + "preempted", ma.preempted, mb.preempted)) return out;
    if (!same(out, at + "priority_changes", ma.priority_changes,
              mb.priority_changes)) {
      return out;
    }
    for (std::size_t bkt = 0; bkt < mpisim::DurationHistogram::kBuckets;
         ++bkt) {
      if (!same(out, at + "compute histogram bucket " + std::to_string(bkt),
                ma.compute_intervals.counts[bkt],
                mb.compute_intervals.counts[bkt])) {
        return out;
      }
      if (!same(out, at + "wait histogram bucket " + std::to_string(bkt),
                ma.wait_intervals.counts[bkt],
                mb.wait_intervals.counts[bkt])) {
        return out;
      }
    }
  }
  return std::nullopt;
}

/// Core comparison shared by both differentials: RunResult, OracleResult
/// and ClusterRunResult::flat all expose this field set.
template <typename L, typename R>
std::optional<std::string> diff_common(const L& a, const R& b) {
  std::optional<std::string> out;
  if (!same(out, "exec_time", a.exec_time, b.exec_time)) return out;
  if (!same(out, "events", a.events, b.events)) return out;
  if (!same(out, "imbalance", a.imbalance, b.imbalance)) return out;
  if (!same(out, "priority_resets", a.priority_resets, b.priority_resets)) {
    return out;
  }
  if (auto d = diff_traces(a.trace, b.trace)) return d;
  return diff_metrics(a.metrics, b.metrics);
}

}  // namespace

std::optional<std::string> diff_engine_vs_oracle(
    const mpisim::RunResult& engine, const OracleResult& oracle) {
  return diff_common(engine, oracle);
}

std::optional<std::string> diff_flat_vs_cluster(
    const mpisim::RunResult& flat, const cluster::ClusterRunResult& clustered) {
  return diff_common(flat, clustered.flat);
}

std::optional<std::string> diff_factorised_vs_full_chip(
    const smt::ChipConfig& chip, const smt::ThroughputSampler::Options& options,
    const std::vector<smt::ChipLoad>& loads) {
  smt::ThroughputSampler sampler(chip, options);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const smt::SampleResult sampled = sampler.sample(loads[i]);
    const smt::SampleResult full = sampler.measure_full_chip(loads[i]);
    if (sampled == full) continue;
    std::optional<std::string> out;
    const std::string what =
        "load " + std::to_string(i) +
        (sampler.factorisable(loads[i]) ? " (factorised)" : " (full chip)") +
        " context ";
    for (std::uint32_t ctx = 0; ctx < chip.num_contexts(); ++ctx) {
      if (!same(out, what + std::to_string(ctx) + " ipc", sampled.ipc[ctx],
                full.ipc[ctx]) ||
          !same(out, what + std::to_string(ctx) + " instr_rate",
                sampled.instr_rate[ctx], full.instr_rate[ctx])) {
        break;
      }
    }
    return out;
  }
  return std::nullopt;
}

std::optional<std::string> check_spec(const ScenarioSpec& raw) {
  const ScenarioSpec spec = sanitize_spec(raw);
  try {
    const Scenario sc = build_scenario(spec);
    // The scenario's static priorities, if any. The policy keeps no run
    // state, so one instance serves every engine below.
    std::optional<smtbal::policy::StaticPriorityPolicy> fixed;
    if (!sc.priorities.empty()) fixed.emplace(sc.priorities);
    mpisim::BalancePolicy* const priorities = fixed ? &*fixed : nullptr;

    if (spec.num_nodes == 1) {
      mpisim::Engine engine(sc.app, sc.placement, sc.config);
      InvariantObserver invariants;
      engine.add_observer(&invariants);
      engine.set_policy(priorities);
      const mpisim::RunResult engine_result = engine.run();

      const OracleResult oracle =
          oracle_run(sc.app, sc.placement, sc.config, sc.priorities);
      if (auto d = diff_engine_vs_oracle(engine_result, oracle)) {
        return "engine-vs-oracle: " + *d;
      }
      if (auto d = diff_factorised_vs_full_chip(
              sc.config.chip, sc.config.sampler, oracle.loads)) {
        return "factorised-vs-full-chip: " + *d;
      }

      // The same scenario through a one-node cluster must retrace the
      // flat run bit-for-bit.
      cluster::ClusterEngine clustered(sc.app, sc.cluster_placement,
                                       sc.cluster_config);
      InvariantObserver cluster_invariants;
      cluster_invariants.watch_interconnect(&clustered.interconnect());
      clustered.add_observer(&cluster_invariants);
      clustered.set_policy(priorities);
      const cluster::ClusterRunResult cluster_result = clustered.run();
      if (auto d = diff_flat_vs_cluster(engine_result, cluster_result)) {
        return "flat-vs-cluster(M=1): " + *d;
      }
    } else {
      cluster::ClusterEngine clustered(sc.app, sc.cluster_placement,
                                       sc.cluster_config);
      InvariantObserver invariants;
      invariants.watch_interconnect(&clustered.interconnect());
      clustered.add_observer(&invariants);
      clustered.set_policy(priorities);
      std::optional<smtbal::policy::RepartitionPolicy> repartition;
      if (spec.migrate) {
        // Hair-trigger repartitioning so the invariant checker sees
        // actual cross-node migrations (the sanitized spec guarantees
        // free seats). Vanilla kernels only accept priorities 2..4, so
        // the inner controller is banded down to match.
        smtbal::policy::RepartitionConfig config;
        config.threshold = 0.05;
        config.hysteresis = 0.05;
        config.interval = 1;
        config.warmup_epochs = 0;
        if (spec.vanilla) {
          config.inner.high_priority = 4;
          config.inner.max_diff = 1;
        }
        repartition.emplace(config);
        clustered.set_policy(&*repartition);
      }
      (void)clustered.run();
    }
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
  return std::nullopt;
}

std::optional<std::string> check_policy_spec(const ScenarioSpec& raw,
                                             const std::string& policy_spec) {
  ScenarioSpec spec = sanitize_spec(raw);
  spec.vanilla = false;
  try {
    const Scenario sc = build_scenario(spec);
    const auto make_policy = [&] {
      policy::PolicyContext context;
      context.num_ranks = sc.app.size();
      return policy::Registry::instance().make(policy_spec, context);
    };

    if (spec.num_nodes == 1) {
      mpisim::Engine engine(sc.app, sc.placement, sc.config);
      InvariantObserver invariants;
      engine.add_observer(&invariants);
      const auto flat_policy = make_policy();
      engine.set_policy(flat_policy.get());
      const mpisim::RunResult flat = engine.run();

      cluster::ClusterEngine clustered(sc.app, sc.cluster_placement,
                                       sc.cluster_config);
      InvariantObserver cluster_invariants;
      cluster_invariants.watch_interconnect(&clustered.interconnect());
      clustered.add_observer(&cluster_invariants);
      const auto cluster_policy = make_policy();
      clustered.set_policy(cluster_policy.get());
      const cluster::ClusterRunResult cluster_result = clustered.run();
      if (auto d = diff_flat_vs_cluster(flat, cluster_result)) {
        return "flat-vs-cluster(M=1) under '" + policy_spec + "': " + *d;
      }
    } else {
      cluster::ClusterEngine clustered(sc.app, sc.cluster_placement,
                                       sc.cluster_config);
      InvariantObserver invariants;
      invariants.watch_interconnect(&clustered.interconnect());
      clustered.add_observer(&invariants);
      const auto cluster_policy = make_policy();
      clustered.set_policy(cluster_policy.get());
      (void)clustered.run();
    }
  } catch (const std::exception& e) {
    return "policy '" + policy_spec + "': exception: " + e.what();
  }
  return std::nullopt;
}

ScenarioSpec shrink_spec(
    ScenarioSpec spec,
    const std::function<bool(const ScenarioSpec&)>& still_fails,
    std::size_t max_attempts) {
  spec = sanitize_spec(spec);
  std::size_t attempts = 0;

  // Shape reducers, biggest savings first. Out-of-range results are
  // healed by sanitize_spec; no-op mutations are skipped via equality.
  using Mutator = void (*)(ScenarioSpec&);
  static constexpr Mutator kMutators[] = {
      [](ScenarioSpec& s) { s.migrate = false; },
      [](ScenarioSpec& s) { s.hetero = false; },
      [](ScenarioSpec& s) { s.family = 0; },
      [](ScenarioSpec& s) { s.num_nodes = 1; },
      [](ScenarioSpec& s) { --s.num_nodes; },
      [](ScenarioSpec& s) { s.num_ranks = 2; },
      [](ScenarioSpec& s) { s.num_ranks /= 2; },
      [](ScenarioSpec& s) { --s.num_ranks; },
      [](ScenarioSpec& s) { s.blocks = 1; },
      [](ScenarioSpec& s) { --s.blocks; },
      [](ScenarioSpec& s) { s.with_noise = false; },
      [](ScenarioSpec& s) { s.with_priorities = false; },
      [](ScenarioSpec& s) { s.cyclic_placement = false; },
      [](ScenarioSpec& s) { s.vanilla = false; },
      [](ScenarioSpec& s) { s.threads_per_core = 2; },
      [](ScenarioSpec& s) { s.num_cores = 1; },
      [](ScenarioSpec& s) { --s.num_cores; },
  };

  bool progress = true;
  while (progress && attempts < max_attempts) {
    progress = false;
    for (const Mutator mutate : kMutators) {
      if (attempts >= max_attempts) break;
      ScenarioSpec candidate = spec;
      mutate(candidate);
      candidate = sanitize_spec(candidate);
      if (candidate == spec) continue;
      ++attempts;
      if (still_fails(candidate)) {
        spec = candidate;
        progress = true;
      }
    }
  }
  return spec;
}

}  // namespace smtbal::simcheck
