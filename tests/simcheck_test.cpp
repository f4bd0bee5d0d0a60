// simcheck subsystem: oracle differential, invariant checker, shrinker,
// fuzz loop and the saved-seed corpus.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/static_policy.hpp"
#include "mpisim/engine.hpp"
#include "simcheck/differ.hpp"
#include "simcheck/fuzz.hpp"
#include "simcheck/invariants.hpp"
#include "simcheck/oracle.hpp"
#include "simcheck/scenario.hpp"
#include "smt/priority.hpp"
#include "smt/sampler.hpp"
#include "workloads/btmz.hpp"
#include "workloads/cases.hpp"
#include "workloads/metbench.hpp"
#include "workloads/siesta.hpp"

namespace smtbal::simcheck {
namespace {

// --- differentials -----------------------------------------------------------

TEST(OracleDifferential, MatchesEngineOverSeeds) {
  // Every seed runs engine-vs-oracle AND flat-vs-cluster(M=1) under the
  // invariant checker; a divergence or violation comes back as a message.
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    const ScenarioSpec spec = random_flat_spec(seed);
    const std::optional<std::string> message = check_spec(spec);
    EXPECT_FALSE(message.has_value())
        << to_string(spec) << ": " << message.value_or("");
  }
}

TEST(OracleDifferential, ExplicitDiffApiAgrees) {
  const Scenario sc = build_scenario(random_flat_spec(77));
  mpisim::Engine engine(sc.app, sc.placement, sc.config);
  std::optional<core::StaticPriorityPolicy> policy;
  if (!sc.priorities.empty()) {
    policy.emplace(sc.priorities);
    engine.set_policy(&*policy);
  }
  const mpisim::RunResult engine_result = engine.run();
  const OracleResult oracle =
      oracle_run(sc.app, sc.placement, sc.config, sc.priorities);

  EXPECT_GT(oracle.events, 0u);
  EXPECT_GT(oracle.exec_time, 0.0);
  const auto diff = diff_engine_vs_oracle(engine_result, oracle);
  EXPECT_FALSE(diff.has_value()) << diff.value_or("");
}

TEST(OracleDifferential, DifferReportsATamperedField) {
  const Scenario sc = build_scenario(random_flat_spec(78));
  mpisim::Engine engine(sc.app, sc.placement, sc.config);
  std::optional<core::StaticPriorityPolicy> policy;
  if (!sc.priorities.empty()) {
    policy.emplace(sc.priorities);
    engine.set_policy(&*policy);
  }
  const mpisim::RunResult engine_result = engine.run();
  OracleResult oracle =
      oracle_run(sc.app, sc.placement, sc.config, sc.priorities);
  oracle.exec_time += 1e-9;
  const auto diff = diff_engine_vs_oracle(engine_result, oracle);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("exec_time"), std::string::npos) << *diff;
}

// --- invariant checker -------------------------------------------------------

TEST(Invariants, ObserverRunsCleanOnAFuzzScenario) {
  const Scenario sc = build_scenario(random_flat_spec(11));
  mpisim::Engine engine(sc.app, sc.placement, sc.config);
  InvariantObserver observer;
  engine.add_observer(&observer);
  std::optional<core::StaticPriorityPolicy> policy;
  if (!sc.priorities.empty()) {
    policy.emplace(sc.priorities);
    engine.set_policy(&*policy);
  }
  (void)engine.run();

  EXPECT_TRUE(observer.violations().empty());
  EXPECT_EQ(observer.stats().violations, 0u);
  EXPECT_GT(observer.stats().events, 0u);
  // Every audited event runs a battery of assertions, not just one.
  EXPECT_GT(observer.stats().checks, 10 * observer.stats().events);
}

TEST(Invariants, InjectedDecodeOffByOneIsCaughtWithin1kIterations) {
  // A decode-arbiter regression would surface as a schedule whose layout
  // disagrees with the paper's tables by (at least) one cycle. Simulate
  // exactly that: build the lawful schedule, move one decode cycle to the
  // wrong owner, and demand the independent checker flags every case.
  Rng rng(0xD15EA5Eu);
  int injected = 0;
  int caught = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const std::size_t contexts = rng.chance(0.5) ? 2 : 4;
    std::vector<smt::HwPriority> priorities(contexts);
    for (auto& p : priorities) {
      p = smt::priority_from_int(static_cast<int>(rng.range(0, 7)));
    }
    smt::DecodeSchedule schedule = smt::decode_schedule(priorities);
    const auto lawful = check_decode_schedule(schedule, priorities);
    ASSERT_FALSE(lawful.has_value())
        << "false positive on a lawful schedule: " << *lawful;

    // Find an owned cycle and hand it to the next context (off-by-one in
    // the owner map); keep the slot counts consistent with the tampered
    // layout so only the layout itself is wrong.
    std::size_t pos = schedule.owner_of_pos.size();
    for (std::size_t i = 0; i < schedule.owner_of_pos.size(); ++i) {
      if (schedule.owner_of_pos[i] >= 0) {
        pos = i;
        break;
      }
    }
    if (pos == schedule.owner_of_pos.size()) continue;  // all-off: no cycles
    const auto owner = static_cast<std::size_t>(schedule.owner_of_pos[pos]);
    const auto thief = (owner + 1) % contexts;
    schedule.owner_of_pos[pos] = static_cast<std::int32_t>(thief);
    --schedule.slots[owner];
    ++schedule.slots[thief];
    ++injected;
    if (check_decode_schedule(schedule, priorities).has_value()) ++caught;
  }
  EXPECT_GT(injected, 800);
  EXPECT_EQ(caught, injected);
}

// --- shrinker ----------------------------------------------------------------

TEST(Shrinker, MinimisesAgainstASyntheticPredicate) {
  ScenarioSpec spec = random_spec(999);
  spec.num_nodes = 1;
  spec.num_cores = 4;
  spec.threads_per_core = 4;
  spec.num_ranks = 12;
  spec.blocks = 6;
  spec.with_noise = true;
  spec.with_priorities = true;
  spec.vanilla = true;
  spec.cyclic_placement = true;
  const auto fails = [](const ScenarioSpec& s) {
    return s.num_ranks >= 6 && s.with_noise;
  };
  ASSERT_TRUE(fails(spec));

  const ScenarioSpec shrunk = shrink_spec(spec, fails);

  // The two load-bearing dimensions survive at their minima...
  EXPECT_EQ(shrunk.num_ranks, 6u);
  EXPECT_TRUE(shrunk.with_noise);
  // ...every irrelevant dimension is reduced/off...
  EXPECT_EQ(shrunk.blocks, 1u);
  EXPECT_EQ(shrunk.num_nodes, 1u);
  EXPECT_FALSE(shrunk.with_priorities);
  EXPECT_FALSE(shrunk.vanilla);
  EXPECT_FALSE(shrunk.cyclic_placement);
  // ...and the chip shrinks only as far as the 6 surviving ranks allow
  // (sanitize clamps ranks to the seat count, which would defuse the
  // predicate, so those mutations must be rejected).
  EXPECT_EQ(shrunk.threads_per_core, 2u);
  EXPECT_EQ(shrunk.num_cores, 3u);
  EXPECT_TRUE(fails(shrunk));
}

// --- fuzz loop ---------------------------------------------------------------

TEST(Fuzz, ReportsAndShrinksInjectedFailuresInSeedOrder) {
  FuzzOptions options;
  options.seed_base = 10;
  options.count = 9;
  options.jobs = 2;
  options.mode = FuzzMode::kFlat;
  const auto check = [](const ScenarioSpec& spec) -> std::optional<std::string> {
    if (spec.seed % 3 == 0) return "injected";
    return std::nullopt;
  };

  const FuzzReport report = run_fuzz(options, check);

  EXPECT_EQ(report.iterations, 9u);
  ASSERT_EQ(report.failures.size(), 3u);
  EXPECT_EQ(report.failures[0].seed, 12u);
  EXPECT_EQ(report.failures[1].seed, 15u);
  EXPECT_EQ(report.failures[2].seed, 18u);
  for (const FuzzFailure& failure : report.failures) {
    EXPECT_EQ(failure.message, "injected");
    // The predicate only reads the seed, so everything else shrinks to
    // the floor.
    EXPECT_EQ(failure.shrunk.num_ranks, 2u);
    EXPECT_EQ(failure.shrunk.blocks, 1u);
    EXPECT_EQ(failure.shrunk.num_nodes, 1u);
    EXPECT_FALSE(failure.shrunk.with_noise);
  }
}

TEST(Fuzz, TimeBoxStopsBetweenBatches) {
  FuzzOptions options;
  options.count = 1'000'000;
  options.seconds = 1e-9;
  const FuzzReport report = run_fuzz(
      options, [](const ScenarioSpec&) { return std::optional<std::string>{}; });
  EXPECT_LT(report.iterations, options.count);
  EXPECT_TRUE(report.ok());
}

/// Every chip load the paper cases of one table sample, at the table
/// benches' sampler windows: sample() (factorised wherever the certificate
/// holds) must equal the whole-chip measurement bit for bit. Iterations
/// are cut down by the callers; the loads a case visits do not depend on
/// them.
void expect_paper_loads_match_full_chip(
    const mpisim::Application& app,
    const std::vector<workloads::PaperCase>& cases) {
  const mpisim::EngineConfig config;
  smt::ThroughputSampler probe(config.chip, config.sampler);
  std::size_t factorised = 0;
  for (const workloads::PaperCase& c : cases) {
    const OracleResult oracle =
        oracle_run(app, c.placement, config, c.priorities);
    ASSERT_FALSE(oracle.loads.empty()) << "case " << c.label;
    const auto diff = diff_factorised_vs_full_chip(config.chip, config.sampler,
                                                   oracle.loads);
    EXPECT_FALSE(diff.has_value()) << "case " << c.label << ": " << *diff;
    for (const smt::ChipLoad& load : oracle.loads) {
      factorised += probe.factorisable(load) ? 1 : 0;
    }
  }
  EXPECT_GT(factorised, 0u) << "the differential must exercise factorisation";
}

TEST(FactorisationDifferential, TableFourLoadsMatchFullChip) {
  workloads::MetBenchConfig config;
  config.iterations = 2;
  expect_paper_loads_match_full_chip(workloads::build_metbench(config),
                                     workloads::metbench_cases());
}

TEST(FactorisationDifferential, TableFiveLoadsMatchFullChip) {
  workloads::BtmzConfig config;
  config.iterations = 2;
  expect_paper_loads_match_full_chip(workloads::build_btmz(config),
                                     workloads::btmz_cases());
}

TEST(FactorisationDifferential, TableSixLoadsMatchFullChip) {
  workloads::SiestaConfig config;
  config.iterations = 2;
  expect_paper_loads_match_full_chip(workloads::build_siesta(config),
                                     workloads::siesta_cases());
}

// --- corpus ------------------------------------------------------------------

TEST(Corpus, SavedSeedsReplayClean) {
#ifndef SMTBAL_CORPUS_DIR
  GTEST_SKIP() << "corpus directory not configured";
#else
  std::size_t seeds = 0;
  for (const auto& item :
       std::filesystem::directory_iterator(SMTBAL_CORPUS_DIR)) {
    if (!item.is_regular_file() || item.path().extension() != ".seeds") {
      continue;
    }
    std::ifstream in(item.path());
    ASSERT_TRUE(in) << item.path();
    std::string line;
    while (std::getline(in, line)) {
      if (const auto hash = line.find('#'); hash != std::string::npos) {
        line.resize(hash);
      }
      std::istringstream is(line);
      std::uint64_t seed = 0;
      if (!(is >> seed)) continue;
      std::string mode;
      is >> mode;
      const ScenarioSpec spec =
          mode == "flat" ? random_flat_spec(seed) : random_spec(seed);
      const std::optional<std::string> message = check_spec(spec);
      EXPECT_FALSE(message.has_value())
          << item.path().filename() << " seed " << seed << " ("
          << to_string(spec) << "): " << message.value_or("");
      ++seeds;
    }
  }
  EXPECT_GT(seeds, 0u) << "corpus should not be empty";
#endif
}

}  // namespace
}  // namespace smtbal::simcheck
