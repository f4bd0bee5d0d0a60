// Evaluation-service tests: the smtbal.evalreq/1 wire format, the
// collision-checked persistent ResultStore, and EvalService end to end
// (determinism across worker counts, admission control, journal reloads).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "service/store.hpp"
#include "simcheck/scenario.hpp"

namespace smtbal::service {
namespace {

// --- helpers ----------------------------------------------------------------

EvalRequest scenario_request(std::string id, std::string spec,
                             std::string policy = "none") {
  EvalRequest request;
  request.id = std::move(id);
  request.scenario = std::move(spec);
  request.policy = std::move(policy);
  return request;
}

/// A temp path unique to this process; removed on destruction.
struct TempFile {
  explicit TempFile(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("smtbal-service-test-" + tag + "-" + std::to_string(::getpid()) +
              ".jsonl")) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
  std::filesystem::path path;
};

/// Submits every request to a fresh service, drains, and returns the
/// serialized response records in submission order.
std::vector<std::string> serve(const std::vector<EvalRequest>& requests,
                               ServiceConfig config,
                               ServiceStats* stats_out = nullptr) {
  EvalService daemon(std::move(config));
  std::vector<std::future<EvalResponse>> futures;
  futures.reserve(requests.size());
  for (const EvalRequest& request : requests) {
    futures.push_back(daemon.submit(request));
  }
  daemon.shutdown();
  std::vector<std::string> records;
  records.reserve(futures.size());
  for (auto& future : futures) {
    records.push_back(to_json_record(future.get()));
  }
  if (stats_out != nullptr) *stats_out = daemon.stats();
  return records;
}

const char* const kGoodFeed =
    R"({"schema":"smtbal.evalreq/1","type":"meta","name":"t"}
{"schema":"smtbal.evalreq/1","type":"eval","id":"q1","scenario":"seed=7 ranks=4 cores=2","policy":"dynamic"}
{"schema":"smtbal.evalreq/1","type":"eval","id":"q2","trace":"runs/app.jsonl","lane":"interactive","stats":"exec_time,events","cores":3,"smt":4}
)";

// --- request parsing --------------------------------------------------------

TEST(RequestParse, GoodFeedCarriesEveryField) {
  std::istringstream in(kGoodFeed);
  const std::vector<EvalRequest> requests = parse_requests(in, "feed");
  ASSERT_EQ(requests.size(), 2u);

  EXPECT_EQ(requests[0].id, "q1");
  EXPECT_EQ(requests[0].scenario, "seed=7 ranks=4 cores=2");
  EXPECT_TRUE(requests[0].trace_path.empty());
  EXPECT_EQ(requests[0].policy, "dynamic");
  EXPECT_EQ(requests[0].lane, Lane::kBatch);
  EXPECT_EQ(requests[0].stats, StatSelection{});  // absent = all four

  EXPECT_EQ(requests[1].id, "q2");
  EXPECT_EQ(requests[1].trace_path, "runs/app.jsonl");
  EXPECT_EQ(requests[1].policy, "none");
  EXPECT_EQ(requests[1].lane, Lane::kInteractive);
  EXPECT_EQ(requests[1].stats,
            (StatSelection{.exec_time = true, .imbalance = false,
                           .events = true, .priority_resets = false}));
  EXPECT_EQ(requests[1].cores, 3u);
  EXPECT_EQ(requests[1].smt, 4u);
}

/// Every malformed feed must fail at the offending 1-based line.
TEST(RequestParse, ErrorsNameSourceAndLine) {
  const auto expect_fail_at = [](const std::string& body, const char* line,
                                 const char* needle) {
    std::istringstream in(body);
    try {
      (void)parse_requests(in, "feed");
      FAIL() << "expected InvalidArgument for: " << needle;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("feed:") + line), std::string::npos)
          << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  const std::string meta =
      "{\"schema\":\"smtbal.evalreq/1\",\"type\":\"meta\"}\n";
  const std::string q1 =
      "{\"schema\":\"smtbal.evalreq/1\",\"type\":\"eval\",\"id\":\"q1\","
      "\"scenario\":\"seed=1\"}\n";

  expect_fail_at(q1, "1", "before the meta record");
  expect_fail_at(meta + meta, "2", "duplicate meta");
  expect_fail_at(
      meta + "{\"schema\":\"smtbal.evalreq/9\",\"type\":\"eval\"}\n", "2",
      "unsupported schema");
  expect_fail_at(meta + q1 + q1, "3", "duplicate request id 'q1'");
  expect_fail_at(meta +
                     "{\"schema\":\"smtbal.evalreq/1\",\"type\":\"eval\","
                     "\"id\":\"q\",\"scenario\":\"seed=1\",\"trace\":\"t\"}\n",
                 "2", "exactly one of");
  expect_fail_at(meta +
                     "{\"schema\":\"smtbal.evalreq/1\",\"type\":\"eval\","
                     "\"id\":\"q\"}\n",
                 "2", "exactly one of");
  expect_fail_at(meta +
                     "{\"schema\":\"smtbal.evalreq/1\",\"type\":\"eval\","
                     "\"id\":\"q\",\"scenario\":\"seed=1\",\"lane\":\"bulk\"}\n",
                 "2", "unknown lane 'bulk'");
  expect_fail_at(meta +
                     "{\"schema\":\"smtbal.evalreq/1\",\"type\":\"eval\","
                     "\"id\":\"q\",\"scenario\":\"seed=1\",\"stats\":\"qps\"}\n",
                 "2", "unknown stat 'qps'");
  expect_fail_at(meta +
                     "{\"schema\":\"smtbal.evalreq/1\",\"type\":\"eval\","
                     "\"id\":\"q\",\"scenario\":\"seed=1\",\"cores\":2}\n",
                 "2", "trace requests only");
  expect_fail_at(meta +
                     "{\"schema\":\"smtbal.evalreq/1\",\"type\":\"eval\","
                     "\"id\":\"q\",\"trace\":\"t\",\"smt\":3}\n",
                 "2", "must be 2 or 4");

  std::istringstream empty("\n  \n");
  EXPECT_THROW((void)parse_requests(empty, "feed"), InvalidArgument);
}

TEST(RequestParse, CommittedSmokeFeedParses) {
  const std::vector<EvalRequest> requests =
      parse_requests_file(std::string(SMTBAL_REQUESTS_DIR) +
                          "/smoke.evalreq.jsonl");
  EXPECT_GE(requests.size(), 3u);
}

// --- scenario spec one-liners -----------------------------------------------

TEST(SpecString, CanonicalRoundTrips) {
  simcheck::ScenarioSpec spec;
  spec.seed = 99;
  spec.num_ranks = 6;
  spec.num_cores = 3;
  spec.blocks = 4;
  const std::string canonical = simcheck::canonical_spec_string(spec);
  EXPECT_EQ(simcheck::canonical_spec_string(
                simcheck::parse_spec_string(canonical)),
            canonical);
  // Key order and omitted defaults don't matter.
  EXPECT_EQ(simcheck::canonical_spec_string(simcheck::parse_spec_string(
                "blocks=4 cores=3 ranks=6 seed=99")),
            canonical);
}

TEST(SpecString, RejectsUnknownKeysAndValues) {
  EXPECT_THROW((void)simcheck::parse_spec_string("seed=1 warp=2"),
               InvalidArgument);
  EXPECT_THROW((void)simcheck::parse_spec_string("flavor=crispy"),
               InvalidArgument);
  EXPECT_THROW((void)simcheck::parse_spec_string("seed="), InvalidArgument);
  EXPECT_THROW((void)simcheck::parse_spec_string("noise"), InvalidArgument);
}

// --- result store -----------------------------------------------------------

TEST(Store, RoundTripsThroughTheJournal) {
  const TempFile journal("roundtrip");
  const std::string canonical_a = "scenario{seed=1} policy{none}";
  const std::string canonical_b = "scenario{seed=2} policy{dynamic}";
  const EvalResult result_a{0.12345678901234567, 0.25, 310, 2};
  const EvalResult result_b{7.5e-3, 0.0, 18, 0};
  {
    ResultStore store;
    store.open(journal.path.string());
    store.publish(canonical_key(canonical_a), canonical_a, result_a);
    store.publish(canonical_key(canonical_b), canonical_b, result_b);
    EXPECT_EQ(store.stats().inserts, 2u);
  }
  ResultStore reloaded;
  reloaded.open(journal.path.string());
  EXPECT_EQ(reloaded.stats().loaded, 2u);
  const auto hit_a = reloaded.lookup(canonical_key(canonical_a), canonical_a);
  ASSERT_TRUE(hit_a.has_value());
  EXPECT_EQ(*hit_a, result_a);  // bit-exact doubles via %.17g
  const auto hit_b = reloaded.lookup(canonical_key(canonical_b), canonical_b);
  ASSERT_TRUE(hit_b.has_value());
  EXPECT_EQ(*hit_b, result_b);
  EXPECT_FALSE(reloaded.lookup(canonical_key("other"), "other").has_value());
  EXPECT_EQ(reloaded.stats().hits, 2u);
  EXPECT_EQ(reloaded.stats().misses, 1u);
}

TEST(Store, CorruptedJournalLinesRejectedWithLineNumbers) {
  const std::string good =
      R"({"schema":"smtbal.evalstore/1","type":"entry","key":"0x)" +
      [] {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          canonical_key("scenario{seed=1} policy{none}")));
        return std::string(hex);
      }() +
      R"(","request":"scenario{seed=1} policy{none}","exec_time":1.5,)"
      R"("imbalance":0.25,"events":3,"priority_resets":0})";
  const auto expect_fail_at = [&](const std::string& bad_line,
                                  const char* needle) {
    const TempFile journal("corrupt");
    {
      std::ofstream os(journal.path);
      os << good << '\n' << bad_line << '\n';
    }
    ResultStore store;
    try {
      store.open(journal.path.string());
      FAIL() << "expected InvalidArgument for: " << needle;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(":2:"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };

  expect_fail_at("this is not json", "expected");
  // Valid JSON whose key does not re-derive from the stored request.
  expect_fail_at(
      R"({"schema":"smtbal.evalstore/1","type":"entry",)"
      R"("key":"0x0000000000000001","request":"scenario{seed=2} policy{none}",)"
      R"("exec_time":1.0,"imbalance":0.0,"events":1,"priority_resets":0})",
      "does not re-derive");
  expect_fail_at(R"({"schema":"smtbal.evalstore/9","type":"entry"})",
                 "unsupported schema");
}

/// One valid journal line (without its newline) for `canonical`.
std::string journal_line(const std::string& canonical) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(canonical_key(canonical)));
  return R"({"schema":"smtbal.evalstore/1","type":"entry","key":"0x)" +
         std::string(hex) + R"(","request":")" + canonical +
         R"(","exec_time":1.5,"imbalance":0.25,"events":3,"priority_resets":0})";
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Store, CutShortFinalLineIsTruncatedAndNextPublishLandsOnACleanLine) {
  const TempFile journal("cut-short");
  const std::string first = journal_line("scenario{seed=1} policy{none}");
  const std::string second = journal_line("scenario{seed=2} policy{none}");
  {
    std::ofstream os(journal.path, std::ios::binary);
    os << first << '\n' << second.substr(0, second.size() / 2);
  }
  const std::string canonical = "scenario{seed=3} policy{none}";
  {
    ResultStore store;
    store.open(journal.path.string());
    EXPECT_EQ(store.stats().loaded, 1u);
    EXPECT_EQ(store.stats().truncated_tails, 1u);
    EXPECT_EQ(read_file(journal.path), first + '\n');
    store.publish(canonical_key(canonical), canonical,
                  EvalResult{2.5, 0.125, 7, 1});
  }
  ResultStore reloaded;
  reloaded.open(journal.path.string());
  EXPECT_EQ(reloaded.stats().loaded, 2u);
  EXPECT_EQ(reloaded.stats().truncated_tails, 0u);
  const auto hit = reloaded.lookup(canonical_key(canonical), canonical);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (EvalResult{2.5, 0.125, 7, 1}));
}

TEST(Store, CompleteFinalLineWithoutNewlineIsKeptAndTerminated) {
  const TempFile journal("no-newline");
  const std::string first = journal_line("scenario{seed=1} policy{none}");
  {
    std::ofstream os(journal.path, std::ios::binary);
    os << first;
  }
  const std::string canonical = "scenario{seed=2} policy{none}";
  {
    ResultStore store;
    store.open(journal.path.string());
    EXPECT_EQ(store.stats().loaded, 1u);
    EXPECT_EQ(store.stats().truncated_tails, 0u);
    store.publish(canonical_key(canonical), canonical,
                  EvalResult{2.5, 0.125, 7, 1});
  }
  EXPECT_EQ(read_file(journal.path).find(first + '\n'), 0u);
  ResultStore reloaded;
  reloaded.open(journal.path.string());
  EXPECT_EQ(reloaded.stats().loaded, 2u);
}

TEST(Store, CorruptTerminatedLineFailsEvenBeforeACutShortTail) {
  const TempFile journal("corrupt-middle");
  const std::string good = journal_line("scenario{seed=1} policy{none}");
  {
    std::ofstream os(journal.path, std::ios::binary);
    os << good << "\nthis is not json\n" << good.substr(0, 10);
  }
  const std::string before = read_file(journal.path);
  ResultStore store;
  try {
    store.open(journal.path.string());
    FAIL() << "expected InvalidArgument for the corrupt second line";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos) << e.what();
  }
  EXPECT_EQ(read_file(journal.path), before);  // nothing truncated
}

TEST(Store, NearCollisionServedAsMissNeverAsWrongResult) {
  // Two *different* canonical requests forced onto one key — the 2^-64
  // event the stored canonical text guards against. lookup()/publish()
  // take the key explicitly, so the test injects the collision directly.
  const std::uint64_t key = canonical_key("scenario{seed=1} policy{none}");
  const std::string request_a = "scenario{seed=1} policy{none}";
  const std::string request_b = "scenario{seed=1} policy{dynamic}";
  const EvalResult result_a{1.25, 0.5, 10, 1};
  const EvalResult result_b{9.75, 0.1, 99, 0};

  ResultStore store;
  store.publish(key, request_a, result_a);

  // The collided lookup must miss — never serve request_a's numbers.
  EXPECT_FALSE(store.lookup(key, request_b).has_value());
  EXPECT_EQ(store.stats().collisions, 1u);
  EXPECT_EQ(store.stats().misses, 1u);

  // First writer wins: the collided publish keeps the original entry.
  store.publish(key, request_b, result_b);
  EXPECT_EQ(store.stats().collisions, 2u);
  const auto hit = store.lookup(key, request_a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, result_a);

  // Re-publishing the same (key, request) is idempotent, not a collision.
  store.publish(key, request_a, result_a);
  EXPECT_EQ(store.stats().collisions, 2u);
  EXPECT_EQ(store.stats().inserts, 1u);
}

// --- the service ------------------------------------------------------------

std::vector<EvalRequest> mixed_feed() {
  std::vector<EvalRequest> requests;
  requests.push_back(scenario_request("a", "seed=7 ranks=4 cores=2 blocks=2"));
  requests.push_back(
      scenario_request("b", "seed=7 ranks=4 cores=2 blocks=2", "dynamic"));
  // Same canonical request as "a": dedupe/store path, identical payload.
  requests.push_back(
      scenario_request("a2", "ranks=4 cores=2 seed=7 blocks=2"));
  requests.push_back(scenario_request("c", "seed=11 ranks=6 cores=3 family=2"));
  requests.push_back(scenario_request("bad-spec", "seed=7 warp=1"));
  requests.push_back(
      scenario_request("bad-policy", "seed=7 ranks=4 cores=2", "dynamik"));
  return requests;
}

TEST(Service, ResponsesByteIdenticalAcrossWorkerCounts) {
  const std::vector<EvalRequest> requests = mixed_feed();
  ServiceConfig one;
  one.workers = 1;
  ServiceConfig four;
  four.workers = 4;
  const std::vector<std::string> lhs = serve(requests, one);
  const std::vector<std::string> rhs = serve(requests, four);
  EXPECT_EQ(lhs, rhs);

  ASSERT_EQ(lhs.size(), requests.size());
  EXPECT_NE(lhs[0].find("\"status\":\"ok\""), std::string::npos) << lhs[0];
  // The duplicate request serves the exact same payload under its own id.
  const std::string payload_a = lhs[0].substr(lhs[0].find("\"key\""));
  const std::string payload_a2 = lhs[2].substr(lhs[2].find("\"key\""));
  EXPECT_EQ(payload_a, payload_a2);
  // Canonicalization or policy errors are value-bearing error records.
  EXPECT_NE(lhs[4].find("\"status\":\"error\""), std::string::npos) << lhs[4];
  EXPECT_NE(lhs[4].find("warp"), std::string::npos) << lhs[4];
  EXPECT_NE(lhs[5].find("did you mean 'dynamic'"), std::string::npos)
      << lhs[5];
}

TEST(Service, AdmissionRejectsWithReasonAndKeepsInteractiveHeadroom) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 4;
  config.interactive_reserve = 1;  // batch bound = 3
  EvalService daemon(config);
  daemon.pause();  // hold the dispatcher so the flood hits the bound

  std::vector<std::future<EvalResponse>> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(daemon.submit(
        scenario_request("b" + std::to_string(i), "seed=7 ranks=4 cores=2")));
  }
  // The batch lane is full, but the reserved interactive slot still admits.
  EvalRequest interactive =
      scenario_request("urgent", "seed=9 ranks=4 cores=2");
  interactive.lane = Lane::kInteractive;
  std::future<EvalResponse> urgent = daemon.submit(interactive);
  // ... and the *total* bound rejects a second interactive request.
  EvalRequest second = interactive;
  second.id = "urgent2";
  std::future<EvalResponse> overflow = daemon.submit(second);

  daemon.resume();
  daemon.shutdown();

  std::size_t rejected = 0;
  for (auto& future : batch) {
    const EvalResponse response = future.get();
    if (response.status == Status::kRejected) {
      ++rejected;
      EXPECT_NE(response.error.find("batch lane full"), std::string::npos)
          << response.error;
      EXPECT_NE(response.error.find("drain and resubmit"), std::string::npos)
          << response.error;
    }
  }
  EXPECT_EQ(rejected, 2u);  // 3 admitted to the batch lane, 2 turned away
  EXPECT_EQ(urgent.get().status, Status::kOk);
  const EvalResponse turned_away = overflow.get();
  EXPECT_EQ(turned_away.status, Status::kRejected);
  EXPECT_NE(turned_away.error.find("queue full"), std::string::npos)
      << turned_away.error;

  const ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.served, 4u);
}

TEST(Service, JournalReloadServesRepeatFeedWithoutEvaluating) {
  const TempFile journal("service-reload");
  const std::vector<EvalRequest> requests = mixed_feed();
  ServiceConfig config;
  config.workers = 2;
  config.store_path = journal.path.string();

  ServiceStats cold_stats;
  const std::vector<std::string> cold = serve(requests, config, &cold_stats);
  EXPECT_GT(cold_stats.evaluated, 0u);

  ServiceStats warm_stats;
  const std::vector<std::string> warm = serve(requests, config, &warm_stats);
  EXPECT_EQ(cold, warm);  // byte-identical across the restart
  // Every ok result is a store hit; only the bad-policy request (its
  // registry error surfaces at run time, and failures are never cached)
  // re-evaluates.
  EXPECT_EQ(warm_stats.evaluated, 1u);
  EXPECT_EQ(warm_stats.store.hits, 4u);  // a, b, a2, c
  EXPECT_GT(warm_stats.store.loaded, 0u);
}

TEST(Service, SubmitAfterShutdownThrows) {
  EvalService daemon(ServiceConfig{});
  daemon.shutdown();
  EXPECT_THROW((void)daemon.submit(scenario_request("late", "seed=1")),
               InvalidArgument);
}

TEST(Service, TrailerCarriesCacheCountersIncludingEvictions) {
  ServiceConfig config;
  config.workers = 1;
  config.cache_capacity = 2;  // tiny: force evictions in the domain caches
  ServiceStats stats;
  (void)serve(mixed_feed(), config, &stats);
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_GT(stats.cache.peak_size, 0u);

  EvalService daemon(config);
  const std::string trailer = daemon.trailer();
  EXPECT_NE(trailer.find("\"schema\":\"smtbal.evalresp.batch/1\""),
            std::string::npos)
      << trailer;
  for (const char* field :
       {"\"evictions\":", "\"peak_size\":", "\"store\":", "\"rejected\":",
        "\"deduped\":", "\"truncated_tails\":"}) {
    EXPECT_NE(trailer.find(field), std::string::npos) << trailer;
  }
}

}  // namespace
}  // namespace smtbal::service
