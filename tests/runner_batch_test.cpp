#include "runner/batch.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "runner/report.hpp"
#include "smt/sampler.hpp"

namespace smtbal::runner {
namespace {

isa::KernelId kid(std::string_view name = isa::kKernelHpcMixed) {
  return isa::KernelRegistry::instance().by_name(name).id;
}

mpisim::EngineConfig fast_config() {
  mpisim::EngineConfig config;
  config.sampler = {.warmup_cycles = 5000, .window_cycles = 20000, .seed = 1};
  return config;
}

/// A two-rank compute+barrier spec; `work` varies the per-rank instruction
/// count so different specs produce different exec times.
RunSpec make_spec(std::string label, double work) {
  RunSpec spec;
  spec.label = std::move(label);
  spec.app.name = spec.label;
  spec.app.ranks.resize(2);
  spec.app.ranks[0].compute(kid(), work).barrier();
  spec.app.ranks[1].compute(kid(), 2 * work).barrier();
  spec.placement = mpisim::Placement::from_linear({0, 2});
  spec.config = fast_config();
  return spec;
}

/// A spec whose engine construction fails: placement smaller than the app.
RunSpec broken_spec() {
  RunSpec spec = make_spec("broken", 1e7);
  spec.placement = mpisim::Placement::identity(1);
  return spec;
}

std::vector<RunSpec> mixed_batch() {
  std::vector<RunSpec> specs;
  specs.push_back(make_spec("small", 1e7));
  specs.push_back(make_spec("medium", 3e7));
  specs.push_back(make_spec("large", 6e7));
  specs.push_back(make_spec("small-again", 1e7));
  specs.push_back(make_spec("tiny", 4e6));
  specs.push_back(make_spec("huge", 9e7));
  return specs;
}

TEST(BatchRunner, OutcomesAreInSpecOrder) {
  const auto specs = mixed_batch();
  const BatchResult batch = BatchRunner({.jobs = 1}).run(specs);
  ASSERT_EQ(batch.runs.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(batch.runs[i].index, i);
    EXPECT_EQ(batch.runs[i].label, specs[i].label);
    EXPECT_TRUE(batch.runs[i].ok) << batch.runs[i].error;
  }
  EXPECT_EQ(batch.failures, 0u);
  EXPECT_EQ(batch.jobs, 1u);
}

TEST(BatchRunner, RecordsAreByteIdenticalForAnyWorkerCount) {
  // The headline guarantee: the JSON records must not depend on --jobs.
  const auto specs = mixed_batch();
  const BatchResult serial = BatchRunner({.jobs = 1}).run(specs);
  const BatchResult parallel = BatchRunner({.jobs = 4}).run(specs);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(to_json_record(serial.runs[i]), to_json_record(parallel.runs[i]))
        << "record " << i << " differs between 1 and 4 workers";
  }
  EXPECT_EQ(serial.exec_time.count(), parallel.exec_time.count());
  EXPECT_DOUBLE_EQ(serial.exec_time.mean(), parallel.exec_time.mean());
  EXPECT_DOUBLE_EQ(serial.imbalance.mean(), parallel.imbalance.mean());
}

TEST(BatchRunner, JobsAreClampedToBatchSize) {
  std::vector<RunSpec> specs;
  specs.push_back(make_spec("a", 1e7));
  specs.push_back(make_spec("b", 1e7));
  const BatchResult batch = BatchRunner({.jobs = 8}).run(specs);
  EXPECT_EQ(batch.jobs, 2u);
}

TEST(BatchRunner, FailedRunIsCapturedWithoutAbortingTheBatch) {
  std::vector<RunSpec> specs;
  specs.push_back(make_spec("first", 1e7));
  specs.push_back(broken_spec());
  specs.push_back(make_spec("last", 1e7));
  const BatchResult batch = BatchRunner({.jobs = 2}).run(specs);
  ASSERT_EQ(batch.runs.size(), 3u);
  EXPECT_TRUE(batch.runs[0].ok);
  EXPECT_FALSE(batch.runs[1].ok);
  EXPECT_FALSE(batch.runs[1].error.empty());
  EXPECT_TRUE(batch.runs[2].ok);
  EXPECT_EQ(batch.failures, 1u);
  // Aggregates only cover the successful runs.
  EXPECT_EQ(batch.exec_time.count(), 2u);
  EXPECT_EQ(batch.imbalance.count(), 2u);
}

TEST(BatchRunner, AggregatesMatchPerRunResults) {
  const auto specs = mixed_batch();
  const BatchResult batch = BatchRunner({.jobs = 1}).run(specs);
  RunningStats expected;
  for (const RunOutcome& out : batch.runs) expected.add(out.result->exec_time);
  EXPECT_EQ(batch.exec_time.count(), expected.count());
  EXPECT_DOUBLE_EQ(batch.exec_time.mean(), expected.mean());
  EXPECT_DOUBLE_EQ(batch.exec_time.min(), expected.min());
  EXPECT_DOUBLE_EQ(batch.exec_time.max(), expected.max());
}

TEST(BatchRunner, SharedCacheRecordsMeasurements) {
  const auto specs = mixed_batch();
  const BatchResult batch = BatchRunner({.jobs = 2}).run(specs);
  // All specs share one sampler domain, so at least one measurement must
  // have been published. Exact hit counts are scheduling-dependent.
  EXPECT_GT(batch.cache_stats.inserts, 0u);
}

TEST(BatchRunner, CacheStatsCarryDivergentRepublishes) {
  // A provider cache in which two writers disagreed on one key (a
  // determinism bug, or a cache shared across sampler domains). Lenient
  // mode, as in release builds, only counts it, so the batch totals and
  // the trailer are the only place the fault shows.
  auto cache = std::make_shared<smt::SampleCache>();
  cache->set_strict(false);
  smt::SampleResult first;
  first.ipc[0] = 1.0;
  smt::SampleResult wrong = first;
  wrong.ipc[0] = 2.0;
  cache->publish(1, first);
  cache->publish(1, wrong);

  BatchOptions options{.jobs = 1};
  options.cache_provider = [&](const smt::ChipConfig&,
                               const smt::ThroughputSampler::Options&) {
    return cache;
  };
  const std::vector<RunSpec> specs = {make_spec("one", 1e7)};
  const BatchResult batch = BatchRunner(options).run(specs);
  ASSERT_TRUE(batch.runs[0].ok);
  EXPECT_EQ(batch.cache_stats.divergent, 1u);
  EXPECT_GT(batch.cache_stats.inserts, 1u);  // the run published too
  EXPECT_NE(to_json_batch_record(batch).find("\"divergent\":1,"),
            std::string::npos);

  // A healthy batch keeps the trailer's shape: no divergent field.
  const BatchResult healthy = BatchRunner({.jobs = 1}).run(specs);
  EXPECT_EQ(healthy.cache_stats.divergent, 0u);
  EXPECT_EQ(to_json_batch_record(healthy).find("divergent"), std::string::npos);
}

TEST(BatchRunner, SampleMatchesDirectSampler) {
  smt::ChipLoad solo;
  solo.contexts[0] = smt::ContextLoad{kid(), smt::HwPriority::kMedium};
  smt::ChipLoad pair = solo;
  pair.contexts[1] =
      smt::ContextLoad{kid(isa::kKernelSpinWait), smt::HwPriority::kLow};
  // Duplicates exercise the shared cache path.
  const std::vector<smt::ChipLoad> loads = {solo, pair, solo, pair, solo};

  const auto options = fast_config().sampler;
  const auto results =
      BatchRunner({.jobs = 3}).sample(smt::ChipConfig{}, options, loads);
  ASSERT_EQ(results.size(), loads.size());

  smt::ThroughputSampler direct(smt::ChipConfig{}, options);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const smt::SampleResult& want = direct.sample(loads[i]);
    for (std::size_t c = 0; c < results[i].ipc.size(); ++c) {
      EXPECT_DOUBLE_EQ(results[i].ipc[c], want.ipc[c]) << "load " << i;
    }
  }
}

TEST(Report, JsonRecordHasStableShape) {
  std::vector<RunSpec> specs;
  specs.push_back(make_spec("shape", 1e7));
  const BatchResult batch = BatchRunner({.jobs = 1}).run(specs);
  const std::string record = to_json_record(batch.runs[0]);
  EXPECT_NE(record.find("\"schema\":\"smtbal.bench.run/2\""), std::string::npos);
  EXPECT_NE(record.find("\"label\":\"shape\""), std::string::npos);
  EXPECT_NE(record.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(record.find("\"exec_time\":"), std::string::npos);
  EXPECT_NE(record.find("\"ranks\":["), std::string::npos);
  // Schema v2: the engine's MetricsObserver rides along with every record.
  EXPECT_NE(record.find("\"events_by_kind\":{"), std::string::npos);
  EXPECT_NE(record.find("\"compute-done\":"), std::string::npos);
  EXPECT_NE(record.find("\"compute_s\":"), std::string::npos);
  EXPECT_NE(record.find("\"wait_s\":"), std::string::npos);
  EXPECT_NE(record.find("\"spin_s\":"), std::string::npos);
  EXPECT_NE(record.find("\"priority_changes\":"), std::string::npos);
  EXPECT_NE(record.find("\"compute_interval_hist\":["), std::string::npos);
  EXPECT_EQ(record.find('\n'), std::string::npos) << "records must be one line";
}

TEST(Report, FailedRunSerialisesErrorInsteadOfMetrics) {
  std::vector<RunSpec> specs;
  specs.push_back(broken_spec());
  const BatchResult batch = BatchRunner({.jobs = 1}).run(specs);
  const std::string record = to_json_record(batch.runs[0]);
  EXPECT_NE(record.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(record.find("\"error\":"), std::string::npos);
  EXPECT_EQ(record.find("\"exec_time\""), std::string::npos);
}

TEST(Report, JsonEscapesSpecialCharacters) {
  RunOutcome outcome;
  outcome.label = "quote\" slash\\ tab\t";
  outcome.ok = false;
  outcome.error = "line\nbreak";
  const std::string record = to_json_record(outcome);
  EXPECT_NE(record.find("quote\\\" slash\\\\ tab\\t"), std::string::npos);
  EXPECT_NE(record.find("line\\nbreak"), std::string::npos);
  EXPECT_EQ(record.find('\n'), std::string::npos);
}

CliOptions parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static char prog[] = "prog";
  argv.push_back(prog);
  for (std::string& a : args) argv.push_back(a.data());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseCli, DefaultsToAllCoresAndNoJson) {
  const CliOptions cli = parse({});
  EXPECT_EQ(cli.jobs, 0u);
  EXPECT_TRUE(cli.json_path.empty());
  EXPECT_TRUE(cli.positional.empty());
}

TEST(ParseCli, AcceptsBothFlagSpellings) {
  EXPECT_EQ(parse({"--jobs", "4"}).jobs, 4u);
  EXPECT_EQ(parse({"--jobs=7"}).jobs, 7u);
  EXPECT_EQ(parse({"--json", "out.jsonl"}).json_path, "out.jsonl");
  EXPECT_EQ(parse({"--json=BENCH_x.json"}).json_path, "BENCH_x.json");
}

TEST(ParseCli, KeepsPositionalArgumentsInOrder) {
  const CliOptions cli = parse({"alpha", "--jobs", "2", "beta", "--json=o", "7"});
  EXPECT_EQ(cli.jobs, 2u);
  EXPECT_EQ(cli.json_path, "o");
  ASSERT_EQ(cli.positional.size(), 3u);
  EXPECT_EQ(cli.positional[0], "alpha");
  EXPECT_EQ(cli.positional[1], "beta");
  EXPECT_EQ(cli.positional[2], "7");
}

TEST(ParseCli, RejectsMalformedFlags) {
  EXPECT_THROW(parse({"--jobs", "many"}), InvalidArgument);
  EXPECT_THROW(parse({"--jobs"}), InvalidArgument);
  EXPECT_THROW(parse({"--json="}), InvalidArgument);
}

TEST(ParseJobs, AcceptsPlainNonNegativeIntegers) {
  EXPECT_EQ(parse_jobs("0"), 0u);
  EXPECT_EQ(parse_jobs("8"), 8u);
  EXPECT_EQ(parse_jobs("4294967295"), 4294967295u);
}

TEST(ParseJobs, RejectsTrailingGarbageSignsAndWhitespace) {
  // std::stoul used to accept all of these ("4x" silently became 4).
  for (const char* bad : {"4x", "", " 4", "4 ", "+4", "-3", "0x8"}) {
    try {
      (void)parse_jobs(bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find("non-negative integer"),
                std::string::npos)
          << bad << ": " << error.what();
    }
  }
}

TEST(ParseJobs, ReportsOutOfRangeDistinctly) {
  try {
    (void)parse_jobs("99999999999999999999");
    FAIL() << "accepted an out-of-range value";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("out of range"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace smtbal::runner
