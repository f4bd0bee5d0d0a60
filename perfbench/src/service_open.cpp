// service-open: an EvalService with two workers and an on-disk journal,
// driven by a fixed open-loop schedule derived from the seed.
//
// One generator thread submits each request at its scheduled time
// (sleeping in between, never spinning) and records how late it ran.
// Completion is observed without assuming FIFO order: the service fulfils
// a wave's store hits before the misses queued ahead of them, interactive
// hits before batch hits, and misses only after their evaluation. Each of
// those three classes completes in submission order, so one collector per
// class blocks on its oldest outstanding future and stamps it the moment
// it resolves. Latency runs from the scheduled send time to that stamp.
#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <thread>

#include "corpus.hpp"
#include "layers.hpp"
#include "service/service.hpp"
#include "simcheck/scenario.hpp"
#include "suite.hpp"
#include "sweeps.hpp"

namespace perfbench {

namespace {

/// The fixed open-loop load: well below the capacity of this mix at two
/// workers (fresh requests are the only evaluations; everything else is
/// a store hit). The Zipf exponent and the fresh share come from
/// bench_service's model: exponent 1.1, and 10 distinct scenarios in a
/// 160-request mix, so 1 batch request in 16 is a first sight. The hot
/// set is the 4 x 8 family x policy cross product. The even split
/// between the lanes is a choice, not a recorded figure: it gives both
/// lanes the same volume.
ServiceLoad open_load(double seconds) {
  ServiceLoad load;
  load.rate_per_s = 190.0;
  load.seconds = seconds;
  load.interactive_share = 0.5;
  load.fresh_share = 1.0 / 16.0;
  load.hot_set = 32;
  load.zipf_s = 1.1;
  return load;
}

constexpr unsigned kWorkers = 2;
constexpr std::size_t kSetupRepeats = 5;

enum Class : std::size_t { kInteractiveHit, kBatchHit, kBatchMiss, kClasses };

/// FIFO of submitted request indices for one completion class.
struct Lane {
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::size_t> pending;  ///< guarded by mutex
  bool closed = false;              ///< guarded by mutex
};

struct Loop {
  std::vector<service::EvalResponse> responses;  ///< by arrival index
  std::vector<double> latency_ms;                ///< by arrival index
  std::vector<double> late_ms;                   ///< generator lateness
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double submit_s = 0.0;
  service::ServiceStats stats;
};

Loop open_loop(service::EvalService& daemon, const ServiceSchedule& schedule,
               SpanRecorder& spans) {
  const std::size_t count = schedule.arrivals.size();
  Loop loop;
  loop.responses.resize(count);
  loop.latency_ms.resize(count);
  loop.late_ms.resize(count);
  std::vector<std::future<service::EvalResponse>> futures(count);
  std::vector<Clock::time_point> done(count);

  Lane lanes[kClasses];
  auto collect = [&](Lane& lane) {
    for (;;) {
      std::size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(lane.mutex);
        lane.ready.wait(lock,
                        [&] { return lane.closed || !lane.pending.empty(); });
        if (lane.pending.empty()) return;
        index = lane.pending.front();
        lane.pending.pop_front();
      }
      futures[index].wait();
      done[index] = Clock::now();
      loop.responses[index] = futures[index].get();
    }
  };
  std::vector<std::thread> collectors;
  for (Lane& lane : lanes) collectors.emplace_back(collect, std::ref(lane));

  // Wake at the scheduled instant, not up to the default 50 us later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double cpu_before = process_cpu_seconds();
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
  auto scheduled = [&](std::size_t i) {
    const std::chrono::duration<double> offset(schedule.arrivals[i].send_at_s);
    return origin + std::chrono::duration_cast<Clock::duration>(offset);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const ScheduledRequest& arrival = schedule.arrivals[i];
    std::this_thread::sleep_until(scheduled(i));
    const Clock::time_point sent = Clock::now();
    {
      const ScopedSpan span(spans, "service.submit", i);
      futures[i] = daemon.submit(arrival.request);
    }
    loop.submit_s += seconds_between(sent, Clock::now());
    loop.late_ms[i] = seconds_between(scheduled(i), sent) * 1e3;
    Lane& lane = lanes[arrival.request.lane == service::Lane::kInteractive
                           ? kInteractiveHit
                           : (arrival.fresh ? kBatchMiss : kBatchHit)];
    {
      const std::lock_guard<std::mutex> lock(lane.mutex);
      lane.pending.push_back(i);
    }
    lane.ready.notify_one();
  }
  for (Lane& lane : lanes) {
    {
      const std::lock_guard<std::mutex> lock(lane.mutex);
      lane.closed = true;
    }
    lane.ready.notify_one();
  }
  for (std::thread& collector : collectors) collector.join();
  loop.cpu_s = process_cpu_seconds() - cpu_before;

  Clock::time_point last = origin;
  for (std::size_t i = 0; i < count; ++i) {
    loop.latency_ms[i] = seconds_between(scheduled(i), done[i]) * 1e3;
    last = std::max(last, done[i]);
  }
  loop.wall_s = seconds_between(origin, last);
  loop.stats = daemon.stats();
  return loop;
}

std::unique_ptr<service::EvalService> open_service(const std::string& journal,
                                                   std::size_t requests) {
  service::ServiceConfig config;
  config.workers = kWorkers;
  config.store_path = journal;
  // Admission sized so the whole schedule fits: nothing is rejected.
  config.max_queue = requests + 2;
  config.interactive_reserve = 1;
  return std::make_unique<service::EvalService>(config);
}

/// Evaluates the hot set into `journal`: one wave at one worker.
void fill_journal(const std::string& journal,
                  const std::vector<service::EvalRequest>& hot_set,
                  Report& report) {
  std::filesystem::remove(journal);
  service::ServiceConfig config;
  config.workers = 1;
  config.store_path = journal;
  service::EvalService daemon(config);
  daemon.pause();  // admit the whole hot set before the first wave
  std::vector<std::future<service::EvalResponse>> futures;
  for (std::size_t i = 0; i < hot_set.size(); ++i) {
    service::EvalRequest request = hot_set[i];
    request.id = "hot" + std::to_string(i);
    futures.push_back(daemon.submit(std::move(request)));
  }
  daemon.resume();
  for (auto& future : futures) {
    const service::EvalResponse response = future.get();
    if (response.status != service::Status::kOk) {
      report.mismatch("hot-set request " + response.id + " failed: " +
                      response.error);
    }
  }
}

std::string request_key(const service::EvalRequest& request) {
  return request.scenario + " | " + request.policy;
}

/// Direct BatchRunner evaluation of every distinct request, one batch per
/// request so each gets its own wall time and measurement count.
struct Reference {
  std::vector<Entry> matrix;
  std::map<std::string, std::size_t> index;  ///< request_key -> matrix row
  std::unique_ptr<CacheBank> bank = std::make_unique<CacheBank>();
  std::vector<Pass> passes;
};

Reference evaluate_reference(const ServiceSchedule& schedule, RunClock& clock,
                             SpanRecorder& spans) {
  Reference ref;
  auto add = [&](const service::EvalRequest& request) {
    if (ref.index.emplace(request_key(request), ref.matrix.size()).second) {
      ref.matrix.push_back(service_entry(request));
    }
  };
  for (const service::EvalRequest& request : schedule.hot_set) add(request);
  for (const service::EvalRequest& request : schedule.fresh) add(request);
  for (const Entry& entry : ref.matrix) {
    ref.passes.push_back(
        run_pass(run_specs({entry}, clock.hook()), *ref.bank, clock, spans));
  }
  return ref;
}

/// Digest over every response in id order, and the per-response check
/// against the reference evaluation.
void check_responses(Report& report, const ServiceSchedule& schedule,
                     const Loop& loop, const Reference& ref) {
  Digest digest;
  for (std::size_t i = 0; i < loop.responses.size(); ++i) {
    const service::EvalResponse& response = loop.responses[i];
    const service::EvalRequest& request = schedule.arrivals[i].request;
    ++report.attempted;
    digest.add(response.id);
    digest.add(static_cast<std::uint64_t>(response.status));
    digest.add(response.key);
    digest.add(response.result.exec_time);
    digest.add(response.result.imbalance);
    digest.add(response.result.events);
    digest.add(response.result.priority_resets);
    if (response.id != request.id || response.status != service::Status::kOk) {
      ++report.failed;
      report.correct = false;
      report.note("request " + request.id + " " +
                  std::string(service::to_string(response.status)) + ": " +
                  response.error);
      continue;
    }
    const RunValues& expected =
        ref.passes[ref.index.at(request_key(request))].values.front();
    if (!expected.ok || expected.exec_time != response.result.exec_time ||
        expected.imbalance != response.result.imbalance ||
        expected.events != response.result.events ||
        expected.priority_resets != response.result.priority_resets) {
      report.mismatch("response " + request.id +
                      " differs from the direct evaluation of its spec");
    }
  }
  report.digest = digest.hex();
}

template <typename Pred>
std::vector<double> select(const std::vector<double>& values, Pred&& keep) {
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (keep(i)) kept.push_back(values[i]);
  }
  return kept;
}

}  // namespace

Report service_open(const RunOptions& options) {
  Report report;
  SpanRecorder quiet(false);
  const ServiceLoad load = open_load(options.seconds);
  const std::string base = options.out_dir + "/service-" +
                           std::to_string(options.seed);
  const std::string journal = base + "-journal.jsonl";
  const std::string pristine = base + "-pristine.jsonl";

  // Set-up: schedule, hot set evaluated into a fresh journal at one
  // worker, then the two-worker service opened on it (journal replay).
  std::vector<double> setup_s;
  ServiceSchedule schedule;
  std::unique_ptr<service::EvalService> daemon;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    daemon.reset();
    const Clock::time_point start = Clock::now();
    schedule = service_schedule(options.seed, load);
    fill_journal(journal, schedule.hot_set, report);
    daemon = open_service(journal, schedule.arrivals.size());
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  {
    std::string samples;
    for (const double sample : setup_s) {
      samples += ' ';
      samples += std::to_string(sample);
    }
    report.note("service-open: set-up samples (s):" + samples);
  }
  std::filesystem::copy_file(journal, pristine,
                             std::filesystem::copy_options::overwrite_existing);
  std::size_t interactive = 0;
  for (const ScheduledRequest& arrival : schedule.arrivals) {
    interactive += arrival.request.lane == service::Lane::kInteractive;
  }
  report.note("service-open: " + std::to_string(schedule.arrivals.size()) +
              " requests at " + std::to_string(load.rate_per_s) +
              "/s open loop (" + std::to_string(interactive) +
              " interactive, " + std::to_string(schedule.fresh.size()) +
              " fresh), hot set " + std::to_string(schedule.hot_set.size()) +
              ", " + std::to_string(kWorkers) + " workers");

  // Timed phase.
  const Loop loop = open_loop(*daemon, schedule, quiet);
  daemon->shutdown();

  // Reference evaluations, outside the timed window.
  PolicyTally tally;
  SpanRecorder spans(options.trace);
  RunClock clock(spans, options.trace ? &tally : nullptr);
  const Reference ref = evaluate_reference(schedule, clock, spans);
  check_responses(report, schedule, loop, ref);
  if (loop.stats.rejected != 0) {
    report.mismatch(std::to_string(loop.stats.rejected) +
                    " admission rejections at the fixed rate");
  }
  check_golden(report, options);

  const std::vector<double> late = loop.late_ms;
  report.note("service-open: generator lateness p50 " +
              std::to_string(percentile(late, 50.0)) + " ms, max " +
              std::to_string(*std::max_element(late.begin(), late.end())) +
              " ms; " + std::to_string(loop.stats.waves) + " waves, " +
              std::to_string(loop.stats.evaluated) + " evaluated; digest " +
              report.digest);

  auto ladder = [&](const std::string& name, auto&& keep) {
    const std::vector<double> kept = select(loop.latency_ms, keep);
    if (kept.empty()) return;
    char line[200];
    std::snprintf(line, sizeof line,
                  "latency %-11s n=%-4zu p50 %.3f  p90 %.3f  p95 %.3f  "
                  "p99 %.3f  max %.3f ms",
                  name.c_str(), kept.size(), percentile(kept, 50.0),
                  percentile(kept, 90.0), percentile(kept, 95.0),
                  percentile(kept, 99.0), percentile(kept, 100.0));
    report.note(line);
  };
  {
    std::vector<double> fresh_ms;
    for (std::size_t r = schedule.hot_set.size(); r < ref.passes.size(); ++r) {
      fresh_ms.push_back(ref.passes[r].wall_s * 1e3);
    }
    if (!fresh_ms.empty()) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "direct evaluation of the %zu fresh specs: p10 %.1f  "
                    "p50 %.1f  p90 %.1f  max %.1f ms",
                    fresh_ms.size(), percentile(fresh_ms, 10.0),
                    percentile(fresh_ms, 50.0), percentile(fresh_ms, 90.0),
                    percentile(fresh_ms, 100.0));
      report.note(line);
    }
  }
  auto lane_of = [&](std::size_t i) {
    return schedule.arrivals[i].request.lane;
  };
  ladder("all", [](std::size_t) { return true; });
  ladder("interactive", [&](std::size_t i) {
    return lane_of(i) == service::Lane::kInteractive;
  });
  ladder("batch-hit", [&](std::size_t i) {
    return lane_of(i) == service::Lane::kBatch && !schedule.arrivals[i].fresh;
  });
  ladder("fresh", [&](std::size_t i) { return schedule.arrivals[i].fresh; });

  if (!options.trace) {
    const auto responses = static_cast<double>(loop.responses.size());
    report.add("setup_s", percentile(setup_s, 50.0), "s");
    report.add("runs_per_s", responses / loop.wall_s, "1/s");
    report.add("cpu_s_per_run", loop.cpu_s / responses, "s");
    add_latency(report, "latency", loop.latency_ms);
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    // Interactive-lane latency: printed, not part of the result line,
    // whose metric set is shared by every workload.
    Report lane;
    add_latency(lane, "interactive",
                select(loop.latency_ms, [&](std::size_t i) {
                  return lane_of(i) == service::Lane::kInteractive;
                }));
    for (const Metric& metric : lane.metrics) {
      report.note(metric.name + " = " + std::to_string(metric.value) + " " +
                  metric.unit);
    }
    for (std::string& line : lane.lines) report.note(std::move(line));
    std::filesystem::remove(journal);
    std::filesystem::remove(pristine);
    return report;
  }

  // Traced loop on a fresh service over the pristine hot-set journal.
  std::filesystem::copy_file(pristine, journal,
                             std::filesystem::copy_options::overwrite_existing);
  std::unique_ptr<service::EvalService> traced_daemon =
      open_service(journal, schedule.arrivals.size());
  const Loop traced = open_loop(*traced_daemon, schedule, spans);
  traced_daemon->shutdown();

  std::uint64_t measurements = 0;
  double cold_s = 0.0, warm_s = 0.0, fresh_s = 0.0;
  std::size_t fresh = 0;
  Pass totals;
  for (std::size_t r = 0; r < ref.matrix.size(); ++r) {
    const Pass& pass = ref.passes[r];
    measurements += pass.measurements;
    cold_s += pass.wall_s;
    totals.intervals += pass.intervals;
    totals.migrations += pass.migrations;
    if (r >= schedule.hot_set.size()) {
      fresh_s += pass.wall_s;
      ++fresh;
    }
    const Pass rerun = run_pass(run_specs({ref.matrix[r]}, clock.hook()),
                                *ref.bank, clock, quiet);
    warm_s += rerun.wall_s;
    if (rerun.measurements != 0) {
      report.mismatch("warm reference re-run measured");
    }
  }
  const double measure_ms =
      (cold_s - warm_s) * 1e3 /
      static_cast<double>(std::max<std::uint64_t>(measurements, 1));
  const std::uint64_t timed_inserts = traced.stats.cache.inserts;
  report.add("smt.sampler.measurements", static_cast<double>(timed_inserts),
             "count");
  report.add("smt.sampler.measure_ms", measure_ms, "ms");
  report.add("smt.sampler.wall_share",
             measure_ms * 1e-3 * static_cast<double>(timed_inserts) /
                 (traced.wall_s * kWorkers),
             "1");
  const smt::SampleCacheStats& cache = traced.stats.cache;
  report.add("smt.cache.hit_ratio", cache.hit_rate(), "1");
  report.add("smt.cache.hits", static_cast<double>(cache.hits), "count");
  report.add("smt.cache.lookups",
             static_cast<double>(cache.hits + cache.misses), "count");
  add_policy_metrics(report, tally);
  const auto cells = static_cast<double>(ref.matrix.size());
  report.add("trace.intervals", static_cast<double>(totals.intervals) / cells,
             "count");
  report.add("cluster.migrations", static_cast<double>(totals.migrations),
             "count");
  report.add("tracing.overhead_ms", (traced.wall_s - loop.wall_s) * 1e3, "ms");

  const double direct_s =
      probe_engines(ref.matrix, ref.bank->options(), spans, report);
  report.add("runner.overhead_ms", (warm_s - direct_s) * 1e3 / cells, "ms");

  double build_s = 0.0;
  for (std::size_t r = 0; r < ref.matrix.size(); ++r) {
    const ScopedSpan span(spans, "simcheck.build", r);
    const Clock::time_point start = Clock::now();
    const simcheck::Scenario built = simcheck::build_scenario(
        simcheck::parse_spec_string(ref.matrix[r].scenario->name));
    build_s += seconds_between(start, Clock::now());
    if (built.app.size() == 0) report.mismatch("empty scenario");
  }
  report.add("simcheck.build_us", build_s * 1e6 / cells, "us");
  report.add("service.submit_us",
             traced.submit_s * 1e6 /
                 static_cast<double>(traced.responses.size()),
             "us");
  report.add("service.eval_ms",
             fresh ? fresh_s * 1e3 / static_cast<double>(fresh) : 0.0, "ms");
  report.add("service.store.open_ms", time_store_open(pristine, spans), "ms");
  report.add("service.store.publish_us",
             time_store_publish(base + "-publish.jsonl", spans), "us");
  add_service_counters(report, traced.stats);

  std::vector<ScenarioPtr> scenarios;
  for (const Entry& entry : ref.matrix) scenarios.push_back(entry.scenario);
  probe_cycle_model(kernel_set(scenarios), frequent_loads(scenarios, 3), spans,
                    report);
  add_self_times(report, spans);
  spans.write_jsonl(options.out_dir + "/spans-service-open.jsonl");
  std::filesystem::remove(journal);
  std::filesystem::remove(pristine);
  return report;
}

}  // namespace perfbench
