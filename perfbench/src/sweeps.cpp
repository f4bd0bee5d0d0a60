// sweep-cold and sweep-warm: one-worker tournament batches through
// runner::BatchRunner, timed from outside through the policy factory
// (which opens every run) and the sampler-domain cache provider (whose
// caches count every cycle-level measurement as an insert).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "corpus.hpp"
#include "layers.hpp"
#include "runner/batch.hpp"
#include "sweeps.hpp"

namespace perfbench {

std::shared_ptr<smt::SampleCache> CacheBank::get(
    const smt::ChipConfig& chip,
    const smt::ThroughputSampler::Options& options) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Domain& domain : domains_) {
    if (domain.chip == chip && domain.options == options) return domain.cache;
  }
  domains_.push_back({chip, options, std::make_shared<smt::SampleCache>()});
  return domains_.back().cache;
}

smt::SampleCacheStats CacheBank::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  smt::SampleCacheStats total;
  for (const Domain& domain : domains_) {
    const smt::SampleCacheStats stats = domain.cache->stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.inserts += stats.inserts;
  }
  return total;
}

runner::BatchOptions CacheBank::options() {
  runner::BatchOptions options;
  options.jobs = 1;
  options.cache_provider = [this](const smt::ChipConfig& chip,
                                  const smt::ThroughputSampler::Options& o) {
    return get(chip, o);
  };
  return options;
}

RunHook RunClock::hook() {
  return [this](std::size_t index,
                std::unique_ptr<mpisim::BalancePolicy> policy)
             -> std::unique_ptr<mpisim::BalancePolicy> {
    entered_[index] = Clock::now();
    if (between_runs_) between_runs_();
    starts_[index] = Clock::now();
    inserts_[index] = bank_->stats().inserts;
    if (spans_.enabled()) {
      if (open_run_ >= 0) spans_.close(open_run_);
      open_run_ = spans_.open("engine.run", index);
    }
    if (tally_ == nullptr || policy == nullptr) return policy;
    return timed_policy(std::move(policy), spans_, *tally_, index);
  };
}

void RunClock::begin(CacheBank& bank, std::size_t runs) {
  bank_ = &bank;
  entered_.assign(runs, Clock::time_point{});
  starts_.assign(runs, Clock::time_point{});
  inserts_.assign(runs, 0);
  open_run_ = -1;
}

void RunClock::end(Clock::time_point finish) {
  if (open_run_ >= 0) spans_.close(open_run_);
  open_run_ = -1;
  finish_ = finish;
  finish_inserts_ = bank_->stats().inserts;
}

std::vector<double> RunClock::latency_ms() const {
  std::vector<double> latency(starts_.size());
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    const Clock::time_point next =
        i + 1 < starts_.size() ? entered_[i + 1] : finish_;
    latency[i] = seconds_between(starts_[i], next) * 1e3;
  }
  return latency;
}

double RunClock::interleaved_s() const {
  double total = 0.0;
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    total += seconds_between(entered_[i], starts_[i]);
  }
  return total;
}

std::vector<std::uint64_t> RunClock::measurements_per_run() const {
  std::vector<std::uint64_t> measurements(inserts_.size());
  for (std::size_t i = 0; i < inserts_.size(); ++i) {
    const std::uint64_t next =
        i + 1 < inserts_.size() ? inserts_[i + 1] : finish_inserts_;
    measurements[i] = next - inserts_[i];
  }
  return measurements;
}

Pass run_pass(const std::vector<runner::RunSpec>& specs, CacheBank& bank,
              RunClock& clock, SpanRecorder& spans) {
  Pass pass;
  const std::uint64_t inserts_before = bank.stats().inserts;
  clock.begin(bank, specs.size());
  runner::BatchResult batch;
  {
    const ScopedSpan span(spans, "runner.batch");
    const Clock::time_point start = Clock::now();
    batch = runner::BatchRunner(bank.options()).run(specs);
    const Clock::time_point finish = Clock::now();
    clock.end(finish);
    pass.wall_s = seconds_between(start, finish) - clock.interleaved_s();
  }
  pass.latency_ms = clock.latency_ms();
  pass.measurements = bank.stats().inserts - inserts_before;
  pass.run_measurements = clock.measurements_per_run();

  Digest digest;
  for (const runner::RunOutcome& out : batch.runs) {
    digest.add(out.label);
    if (!out.ok) {
      ++pass.failures;
      pass.values.emplace_back();
      pass.errors.push_back(out.label + ": " + out.error);
      digest.add(out.error);
      continue;
    }
    const mpisim::RunResult& run = *out.result;
    pass.values.push_back(
        {true, run.exec_time, run.imbalance, run.events, run.priority_resets});
    digest.add(run.exec_time);
    digest.add(run.imbalance);
    digest.add(run.events);
    pass.events += run.events;
    for (std::size_t rank = 0; rank < run.trace.num_ranks(); ++rank) {
      pass.intervals += run.trace.timeline(static_cast<RankId>(rank)).size();
    }
    for (const cluster::NodeStats& node : out.node_stats) {
      pass.migrations += node.migrations;
    }
  }
  pass.digest = digest.hex();
  return pass;
}

namespace {

/// sweep-cold's set-up (corpus, entrants and specs) takes about 0.2 ms,
/// and a shared host's speed switches between modes that last seconds to
/// minutes, so it is timed once between every two runs of the timed
/// passes: its samples spread over the timed phase as the runs' own time
/// does. setup_s is the mean of the middle half of those samples; a
/// median would jump between two speed modes where this mean moves with
/// the share of time spent in each.
constexpr std::size_t kWarmSetupRepeats = 3;
/// Pass durations on the reference machine (4-core x86 container). A run
/// makes max(1, round(seconds / nominal)) passes, so --seconds fixes the
/// amount of work and a faster build does the same work in less time.
constexpr double kColdPassNominalS = 18.0;
constexpr double kWarmPassNominalS = 0.065;
/// Warm re-runs of the cold corpus on the first pass's caches: every
/// sweep-cold run makes one to check its outputs, a traced run this many
/// to time them.
constexpr std::size_t kWarmReruns = 5;

std::size_t passes_for(double seconds, double nominal) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / nominal)));
}

double median_of(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Mean of the samples ranked between the first and third quartiles.
double interquartile_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t from = values.size() / 4;
  const std::size_t to = std::max(values.size() - values.size() / 4, from + 1);
  return std::accumulate(values.begin() + from, values.begin() + to, 0.0) /
         static_cast<double>(to - from);
}

/// Every pass of one set must reproduce the first: same digest, same
/// measurement count, no failed runs.
void check_passes(Report& report, const std::vector<Pass>& passes,
                  const std::string& reference_digest,
                  std::uint64_t expected_measurements) {
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    report.attempted += pass.latency_ms.size();
    report.failed += pass.failures;
    for (const std::string& error : pass.errors) {
      report.note("run error: " + error);
    }
    if (pass.failures > 0) report.correct = false;
    if (pass.digest != reference_digest) {
      report.mismatch("pass " + std::to_string(p) + " digest " + pass.digest +
                      " != " + reference_digest);
    }
    if (pass.measurements != expected_measurements) {
      report.mismatch("pass " + std::to_string(p) + " ran " +
                      std::to_string(pass.measurements) +
                      " cycle-level measurements, expected " +
                      std::to_string(expected_measurements));
    }
  }
}

/// Every pass runs the same specs in the same order; a run's latency is
/// its wall time averaged over the passes, so that each sample spans as
/// many moments of the host as there are passes.
void add_end_to_end(Report& report, double setup_s,
                    const std::vector<Pass>& passes, double cpu_s) {
  double wall = 0.0;
  std::vector<double> latency(passes.front().latency_ms.size(), 0.0);
  for (const Pass& pass : passes) {
    wall += pass.wall_s;
    for (std::size_t i = 0; i < latency.size(); ++i) {
      latency[i] += pass.latency_ms[i] / static_cast<double>(passes.size());
    }
  }
  const auto runs = static_cast<double>(latency.size() * passes.size());
  report.add("setup_s", setup_s, "s");
  report.add("runs_per_s", runs / wall, "1/s");
  report.add("cpu_s_per_run", cpu_s / runs, "s");
  add_latency(report, "latency", latency);
  report.add("peak_rss_mb", peak_rss_mib(), "MiB");
}

/// Timed passes with CPU accounting. The clock's between-runs task is
/// single-threaded, so its wall time is taken off as CPU time.
template <typename MakeBank>
std::vector<Pass> timed_passes(std::size_t count,
                               const std::vector<runner::RunSpec>& specs,
                               MakeBank&& bank_for_pass, RunClock& clock,
                               SpanRecorder& spans, double& cpu_s) {
  std::vector<Pass> passes;
  double between_s = 0.0;
  const double cpu_before = process_cpu_seconds();
  for (std::size_t p = 0; p < count; ++p) {
    passes.push_back(run_pass(specs, bank_for_pass(), clock, spans));
    between_s += clock.interleaved_s();
  }
  cpu_s = process_cpu_seconds() - cpu_before - between_s;
  return passes;
}

/// Median pass wall time: robust to a slow first pass (cold page cache,
/// first-touch allocations).
double median_wall(const std::vector<Pass>& passes) {
  std::vector<double> walls;
  for (const Pass& pass : passes) walls.push_back(pass.wall_s);
  return median_of(std::move(walls));
}

/// Per-layer metrics shared by both sweeps, from one traced set of passes.
void add_sweep_layers(Report& report, const std::vector<Pass>& traced,
                      const std::vector<Pass>& untraced, PolicyTally& tally) {
  const Pass& pass = traced.front();
  const auto runs = static_cast<double>(pass.latency_ms.size());
  add_policy_metrics(report, tally);
  report.add("trace.intervals", static_cast<double>(pass.intervals) / runs,
             "count");
  report.add("cluster.migrations", static_cast<double>(pass.migrations),
             "count");
  report.add("tracing.overhead_ms",
             (median_wall(traced) - median_wall(untraced)) * 1e3, "ms");
}

}  // namespace

Report sweep_cold(const RunOptions& options) {
  Report report;
  SpanRecorder quiet(false);
  RunClock clock(quiet, nullptr);

  // Set-up: corpus, entrants and specs, built single-threaded.
  const std::vector<ScenarioPtr> corpus = cold_corpus(options.seed);
  const std::vector<Entry> matrix = tournament(corpus, tournament_entrants());
  const std::vector<runner::RunSpec> specs = run_specs(matrix, clock.hook());
  report.note("sweep-cold: " + std::to_string(corpus.size()) +
              " scenarios x " + std::to_string(tournament_entrants().size()) +
              " entrants = " + std::to_string(specs.size()) +
              " runs per pass, 1 worker, caches empty at every pass");

  // Timed phase: passes from empty caches, with the set-up timed once
  // more between every two runs.
  std::vector<double> setup_s;
  clock.set_between_runs([&] {
    const Clock::time_point start = Clock::now();
    const std::vector<runner::RunSpec> built = run_specs(
        tournament(cold_corpus(options.seed), tournament_entrants()));
    setup_s.push_back(seconds_between(start, Clock::now()));
  });
  const std::size_t count = passes_for(options.seconds, kColdPassNominalS);
  std::vector<std::unique_ptr<CacheBank>> banks;
  auto fresh_bank = [&banks]() -> CacheBank& {
    banks.push_back(std::make_unique<CacheBank>());
    return *banks.back();
  };
  double cpu_s = 0.0;
  const std::vector<Pass> passes =
      timed_passes(count, specs, fresh_bank, clock, quiet, cpu_s);
  clock.set_between_runs({});
  report.digest = passes.front().digest;
  check_passes(report, passes, report.digest, passes.front().measurements);

  // Outside the timed window: the same specs again on the first pass's
  // caches must reproduce the cold digest without measuring anything.
  CacheBank& cold_bank = *banks.front();
  const smt::SampleCacheStats cold_cache = cold_bank.stats();
  std::vector<Pass> warm{run_pass(specs, cold_bank, clock, quiet)};
  check_passes(report, warm, report.digest, 0);
  check_golden(report, options, passes.front().measurements);
  {
    std::size_t free_runs = 0;
    for (const std::uint64_t m : passes.front().run_measurements) {
      free_runs += m == 0;
    }
    report.note("sweep-cold: " + std::to_string(free_runs) + " of " +
                std::to_string(specs.size()) +
                " runs made no cycle-level measurement");
  }
  report.note("sweep-cold: " + std::to_string(count) + " timed passes, " +
              std::to_string(passes.front().measurements) +
              " cycle-level measurements per pass, digest " + report.digest);

  if (!options.trace) {
    add_end_to_end(report, interquartile_mean(setup_s), passes, cpu_s);
    return report;
  }

  // More warm re-runs of the same specs on the first pass's caches: the
  // difference is the time the cold pass spent measuring.
  while (warm.size() < kWarmReruns) {
    warm.push_back(run_pass(specs, cold_bank, clock, quiet));
    check_passes(report, {warm.back()}, report.digest, 0);
  }
  const double warm_wall_s = median_wall(warm);
  const Pass& cold = passes.front();
  report.add("smt.sampler.measurements", static_cast<double>(cold.measurements),
             "count");
  const auto measured =
      static_cast<double>(std::max<std::uint64_t>(cold.measurements, 1));
  report.add("smt.sampler.measure_ms",
             (cold.wall_s - warm_wall_s) * 1e3 / measured, "ms");
  report.add("smt.sampler.wall_share",
             (cold.wall_s - warm_wall_s) / cold.wall_s, "1");
  report.add("smt.cache.hit_ratio", cold_cache.hit_rate(), "1");
  report.add("smt.cache.hits", static_cast<double>(cold_cache.hits), "count");
  report.add("smt.cache.lookups",
             static_cast<double>(cold_cache.hits + cold_cache.misses), "count");

  // Traced pass: the same work with spans and timed policies.
  SpanRecorder spans(true);
  PolicyTally tally;
  RunClock traced_clock(spans, &tally);
  const std::vector<runner::RunSpec> traced_specs =
      run_specs(matrix, traced_clock.hook());
  double traced_cpu = 0.0;
  const std::vector<Pass> traced = timed_passes(
      1, traced_specs, fresh_bank, traced_clock, spans, traced_cpu);
  check_passes(report, traced, report.digest, cold.measurements);
  add_sweep_layers(report, traced, passes, tally);

  const double direct_s = probe_engines(
      matrix, cold_bank.options(), spans, report);
  report.add("runner.overhead_ms",
             (warm_wall_s - direct_s) * 1e3 / static_cast<double>(specs.size()),
             "ms");
  probe_cycle_model(kernel_set(corpus), frequent_loads(corpus, 3), spans,
                    report);
  probe_service(options.seed, options.out_dir, spans, report);
  add_self_times(report, spans);
  spans.write_jsonl(options.out_dir + "/spans-sweep-cold.jsonl");
  return report;
}

Report sweep_warm(const RunOptions& options) {
  Report report;
  SpanRecorder quiet(false);
  RunClock clock(quiet, nullptr);

  // Set-up: corpus and specs, then one untimed-by-the-sweep fill pass at
  // one worker that leaves every sampler-domain cache warm.
  std::vector<double> setup_s;
  std::vector<ScenarioPtr> corpus;
  std::vector<Entry> matrix;
  std::vector<runner::RunSpec> specs;
  std::unique_ptr<CacheBank> bank;
  Pass fill;
  for (std::size_t k = 0; k < kWarmSetupRepeats; ++k) {
    const Clock::time_point start = Clock::now();
    corpus = warm_corpus(options.seed);
    matrix = tournament(corpus, tournament_entrants());
    specs = run_specs(matrix, clock.hook());
    bank = std::make_unique<CacheBank>();
    Pass filled = run_pass(specs, *bank, clock, quiet);
    setup_s.push_back(seconds_between(start, Clock::now()));
    if (k > 0 && (filled.digest != fill.digest ||
                  filled.measurements != fill.measurements)) {
      report.mismatch("set-up fill pass " + std::to_string(k) +
                      " diverged from the first");
    }
    fill = std::move(filled);
  }
  report.note("sweep-warm: " + std::to_string(corpus.size()) +
              " scenarios x " + std::to_string(tournament_entrants().size()) +
              " entrants = " + std::to_string(specs.size()) +
              " runs per pass, " + std::to_string(fill.events) +
              " engine events per pass; set-up fill ran " +
              std::to_string(fill.measurements) +
              " cycle-level measurements");

  // Timed phase: warm passes, which must not measure anything.
  const std::size_t count = passes_for(options.seconds, kWarmPassNominalS);
  auto warm_bank = [&bank]() -> CacheBank& { return *bank; };
  double cpu_s = 0.0;
  const std::vector<Pass> passes =
      timed_passes(count, specs, warm_bank, clock, quiet, cpu_s);
  report.digest = fill.digest;
  report.attempted += fill.latency_ms.size();
  report.failed += fill.failures;
  if (fill.failures > 0) report.correct = false;
  check_passes(report, passes, fill.digest, 0);
  check_golden(report, options, fill.measurements);
  report.note("sweep-warm: " + std::to_string(count) +
              " timed passes, 0 measurements expected, digest " +
              report.digest);

  if (!options.trace) {
    add_end_to_end(report, median_of(setup_s), passes, cpu_s);
    return report;
  }

  const smt::SampleCacheStats before = bank->stats();
  SpanRecorder spans(true);
  PolicyTally tally;
  RunClock traced_clock(spans, &tally);
  const std::vector<runner::RunSpec> traced_specs =
      run_specs(matrix, traced_clock.hook());
  double traced_cpu = 0.0;
  const std::vector<Pass> traced = timed_passes(
      count, traced_specs, warm_bank, traced_clock, spans, traced_cpu);
  check_passes(report, traced, fill.digest, 0);
  const smt::SampleCacheStats after = bank->stats();

  const double warm_wall_s = median_wall(passes);
  std::uint64_t timed_measurements = 0;
  for (const Pass& pass : traced) timed_measurements += pass.measurements;
  report.add("smt.sampler.measurements",
             static_cast<double>(timed_measurements), "count");
  report.add("smt.sampler.measure_ms",
             (fill.wall_s - warm_wall_s) * 1e3 /
                 static_cast<double>(
                     std::max<std::uint64_t>(fill.measurements, 1)),
             "ms");
  report.add("smt.sampler.wall_share", 0.0, "1");
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t lookups = hits + (after.misses - before.misses);
  report.add("smt.cache.hit_ratio",
             lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 1.0,
             "1");
  report.add("smt.cache.hits", static_cast<double>(hits), "count");
  report.add("smt.cache.lookups", static_cast<double>(lookups), "count");
  add_sweep_layers(report, traced, passes, tally);

  const double direct_s = probe_engines(matrix, bank->options(), spans, report);
  report.add("runner.overhead_ms",
             (warm_wall_s - direct_s) * 1e3 / static_cast<double>(specs.size()),
             "ms");
  probe_cycle_model(kernel_set(corpus), frequent_loads(corpus, 3), spans,
                    report);
  probe_service(options.seed, options.out_dir, spans, report);
  add_self_times(report, spans);
  spans.write_jsonl(options.out_dir + "/spans-sweep-warm.jsonl");
  return report;
}

}  // namespace perfbench
