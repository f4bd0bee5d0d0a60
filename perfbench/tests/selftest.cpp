// perfbench's own tests: the tail-percentile rule, determinism of the
// seeded inputs, the span self-time rule, digest reproduction, and the
// run clock's exclusion of work timed between runs.
//
//   python3 perfbench/run.py --selftest
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "corpus.hpp"
#include "measure.hpp"
#include "sweeps.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> samples(n);
  std::iota(samples.begin(), samples.end(), 1.0);
  return samples;
}

void test_percentile() {
  check(percentile(one_to(100), 50.0) == 50.0, "p50 of 1..100 is 50");
  check(percentile(one_to(100), 99.0) == 99.0, "p99 of 1..100 is 99");
  check(percentile(one_to(1), 99.9) == 1.0, "any percentile of one sample");
  std::vector<double> shuffled{5.0, 1.0, 4.0, 2.0, 3.0};
  check(percentile(shuffled, 50.0) == 3.0, "percentile sorts its input");
}

void test_tail_rule() {
  struct Case {
    std::size_t n;
    double percentile;
    std::size_t beyond;
  };
  // The highest ladder percentile leaving >= 10 samples ranked above it.
  const Case cases[] = {{104, 90.0, 10},  {1000, 99.0, 10}, {500, 95.0, 25},
                        {8000, 99.5, 40}, {6160, 99.5, 30}, {19, 50.0, 9},
                        {100000, 99.99, 10}, {20, 50.0, 10}, {40, 75.0, 10}};
  for (const Case& c : cases) {
    const std::vector<double> samples = one_to(c.n);
    const Tail tail = tail_percentile(samples);
    const std::string name = "tail rule at n=" + std::to_string(c.n);
    check(tail.percentile == c.percentile,
          name + ": percentile " + std::to_string(tail.percentile));
    check(tail.beyond == c.beyond,
          name + ": beyond " + std::to_string(tail.beyond));
    check(tail.value == static_cast<double>(c.n - tail.beyond),
          name + ": value is the nearest-rank sample");
  }
}

void test_digest() {
  Digest a, b, c;
  a.add(1.0);
  a.add(std::uint64_t{2});
  b.add(1.0);
  b.add(std::uint64_t{2});
  c.add(std::uint64_t{2});
  c.add(1.0);
  check(a.value() == b.value(), "digest is deterministic");
  check(a.value() != c.value(), "digest is order-sensitive");
  Digest zero, negative_zero;
  zero.add(0.0);
  negative_zero.add(-0.0);
  check(zero.value() != negative_zero.value(), "digest covers exact bits");
}

void test_self_time() {
  // root [0,10] > child [2,5] > grandchild [3,4]; a second root [20,21].
  const std::vector<Span> spans = {{"runner.batch", 0, 10, -1, 0},
                                   {"engine.run", 2, 5, 0, 0},
                                   {"policy.epoch", 3, 4, 1, 0},
                                   {"runner.batch", 20, 21, -1, 0}};
  const auto self = module_self_seconds(spans);
  auto of = [&](const std::string& module) {
    for (const auto& [name, value] : self) {
      if (name == module) return value;
    }
    return -1.0;
  };
  check(of("runner") == 8.0, "runner self time excludes its child");
  check(of("engine") == 2.0, "engine self time excludes its child");
  check(of("policy") == 1.0, "leaf self time is its duration");

  SpanRecorder recorder(true);
  {
    const ScopedSpan outer(recorder, "runner.batch");
    const ScopedSpan inner(recorder, "engine.run", 7);
  }
  const std::vector<Span> recorded = recorder.spans();
  check(recorded.size() == 2 && recorded[1].parent == 0 && recorded[1].id == 7,
        "nested spans record their parent and id");
  SpanRecorder off(false);
  { const ScopedSpan ignored(off, "runner.batch"); }
  check(off.spans().empty(), "a disabled recorder records nothing");
}

void test_schedule_determinism() {
  ServiceLoad load;
  load.rate_per_s = 100.0;
  load.seconds = 3.0;
  load.interactive_share = 0.5;
  load.fresh_share = 0.1;
  load.hot_set = 8;
  load.zipf_s = 1.1;
  const ServiceSchedule a = service_schedule(7, load);
  const ServiceSchedule b = service_schedule(7, load);
  const ServiceSchedule c = service_schedule(8, load);
  check(a.arrivals.size() == 300, "schedule has rate x seconds arrivals");
  bool same = a.arrivals.size() == b.arrivals.size();
  for (std::size_t i = 0; same && i < a.arrivals.size(); ++i) {
    same = a.arrivals[i].send_at_s == b.arrivals[i].send_at_s &&
           a.arrivals[i].request.scenario == b.arrivals[i].request.scenario &&
           a.arrivals[i].request.policy == b.arrivals[i].request.policy &&
           a.arrivals[i].request.lane == b.arrivals[i].request.lane &&
           a.arrivals[i].fresh == b.arrivals[i].fresh;
  }
  check(same, "same seed, same schedule");
  const ScheduledRequest& first = a.arrivals.front();
  const ScheduledRequest& other = c.arrivals.front();
  check(first.request.scenario != other.request.scenario ||
            first.send_at_s != other.send_at_s,
        "another seed, another schedule");
  std::size_t interactive = 0, fresh = 0;
  bool ordered = true;
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    interactive += a.arrivals[i].request.lane == service::Lane::kInteractive;
    fresh += a.arrivals[i].fresh;
    if (i > 0) {
      ordered &= a.arrivals[i].send_at_s >= a.arrivals[i - 1].send_at_s;
    }
  }
  check(interactive == 150, "exact interactive share");
  check(fresh == 15 && a.fresh.size() == 15, "exact fresh share");
  check(ordered && a.arrivals.back().send_at_s < load.seconds,
        "arrivals ordered within the window");
}

void test_hot_set_cross_product() {
  ServiceLoad load;
  load.hot_set = 4 * tournament_entrants().size();
  const ServiceSchedule schedule = service_schedule(11, load);
  std::set<std::string> pairs;
  for (const service::EvalRequest& request : schedule.hot_set) {
    const std::size_t at = request.scenario.find("family=");
    pairs.insert(request.scenario.substr(at, 8) + " " + request.policy);
  }
  check(pairs.size() == load.hot_set,
        "the hot set covers every family x policy pair once");
}

void test_corpus_determinism() {
  auto names = [](const std::vector<ScenarioPtr>& corpus) {
    std::string all;
    for (const ScenarioPtr& scenario : corpus) {
      all += scenario->name + ":" + std::to_string(scenario->app.size()) + ";";
    }
    return all;
  };
  check(names(cold_corpus(3)) == names(cold_corpus(3)), "cold corpus repeats");
  check(names(cold_corpus(3)) != names(cold_corpus(4)),
        "the seed picks the cold corpus's fuzz scenarios");
  check(cold_corpus(3).size() == cold_corpus(4).size(),
        "cold corpus size does not depend on the seed");
  check(names(warm_corpus(3)) == names(warm_corpus(3)), "warm corpus repeats");
}

void test_digest_reproduces() {
  ServiceLoad load;
  load.hot_set = 2;
  std::vector<Entry> matrix;
  const ServiceSchedule schedule = service_schedule(5, load);
  for (const service::EvalRequest& request : schedule.hot_set) {
    matrix.push_back(service_entry(request));
  }
  SpanRecorder quiet(false);
  RunClock clock(quiet, nullptr);
  const std::vector<runner::RunSpec> specs = run_specs(matrix, clock.hook());
  CacheBank first, second;
  const Pass a = run_pass(specs, first, clock, quiet);
  const Pass b = run_pass(specs, second, clock, quiet);
  const Pass warm = run_pass(specs, first, clock, quiet);
  check(a.failures == 0, "probe runs succeed");
  check(a.digest == b.digest, "cold passes reproduce the digest");
  check(a.measurements == b.measurements && a.measurements > 0,
        "cold passes repeat the measurement count");
  check(warm.digest == a.digest && warm.measurements == 0,
        "a warm re-run reproduces the digest without measuring");
  std::uint64_t per_run = 0;
  for (const std::uint64_t m : a.run_measurements) per_run += m;
  check(per_run == a.measurements,
        "per-run measurement deltas sum to the pass");
  check(a.latency_ms.size() == specs.size(), "one latency per run");

  // A between-runs task counts in neither the runs' latencies nor the
  // pass's wall time.
  clock.set_between_runs(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  CacheBank third;
  const Pass timed = run_pass(specs, third, clock, quiet);
  clock.set_between_runs({});
  const double summed =
      std::accumulate(timed.latency_ms.begin(), timed.latency_ms.end(), 0.0);
  check(clock.interleaved_s() >= 0.02 * static_cast<double>(specs.size()),
        "the between-runs task ran once per run");
  check(timed.wall_s * 1e3 < summed + 10.0 &&
            *std::max_element(timed.latency_ms.begin(),
                              timed.latency_ms.end()) < timed.wall_s * 1e3,
        "between-runs time is left out of latency and wall time");
  check(timed.digest == a.digest, "the between-runs task changes no output");
}

}  // namespace

int main() {
  test_percentile();
  test_tail_rule();
  test_digest();
  test_self_time();
  test_schedule_determinism();
  test_hot_set_cross_product();
  test_corpus_determinism();
  test_digest_reproduces();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
