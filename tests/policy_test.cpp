// Policy-layer tests: the widened EngineControl actuation surface
// (placement moves, per-node budgets), the policy registry, the new
// policy families, and byte-identity of the registry-built ports of the
// legacy balancers against their directly-constructed originals.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/engine.hpp"
#include "cluster/workload.hpp"
#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "mpisim/engine.hpp"
#include "policy/allocation.hpp"
#include "policy/budget.hpp"
#include "policy/cadence.hpp"
#include "policy/dynamic.hpp"
#include "policy/ilp_pairing.hpp"
#include "policy/registry.hpp"
#include "policy/seating.hpp"
#include "policy/static_priority.hpp"
#include "policy/two_level.hpp"
#include "smt/priority.hpp"
#include "smt/sampler.hpp"
#include "workloads/metbench.hpp"

namespace smtbal::policy {
namespace {

isa::KernelId kid() {
  return isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;
}

mpisim::EngineConfig fast_config() {
  mpisim::EngineConfig config;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  return config;
}

/// Two ranks sharing core 0 of the default 2-core chip; rank 0 does
/// `ratio` times the work. Cores 1's two seats stay free for move tests.
mpisim::Application imbalanced_pair(int iterations = 5, double ratio = 4.0) {
  mpisim::Application app;
  app.ranks.resize(2);
  for (int i = 0; i < iterations; ++i) {
    app.ranks[0].compute(kid(), 2e8 * ratio).barrier();
    app.ranks[1].compute(kid(), 2e8).barrier();
  }
  return app;
}

const mpisim::Placement kPair = mpisim::Placement::from_linear({0, 1});

/// MetBench with both heavy workers misseated onto the same core — the
/// scenario priorities alone cannot repair (decode weights are relative
/// within a core) but placement moves can.
workloads::MetBenchConfig misseated_metbench() {
  workloads::MetBenchConfig config;
  config.iterations = 6;
  return config;
}

/// Heavy ranks 1 and 3 both land on core 0; lights share core 1.
const mpisim::Placement kMisseated = mpisim::Placement::from_linear({2, 0, 3, 1});

mpisim::RunResult run_flat(const mpisim::Application& app,
                           const mpisim::Placement& placement,
                           mpisim::BalancePolicy* policy) {
  mpisim::Engine engine(app, placement, fast_config());
  if (policy != nullptr) engine.set_policy(policy);
  return engine.run();
}

/// Test policy running arbitrary callbacks inside the engine's hooks.
class HookProbe final : public mpisim::BalancePolicy {
 public:
  using StartHook = std::function<void(mpisim::EngineControl&)>;
  using EpochHook =
      std::function<void(mpisim::EngineControl&, const mpisim::EpochReport&)>;

  explicit HookProbe(StartHook on_start, EpochHook on_epoch = {})
      : start_(std::move(on_start)), epoch_(std::move(on_epoch)) {}

  [[nodiscard]] std::string_view name() const override { return "probe"; }
  void on_start(mpisim::EngineControl& control) override {
    if (start_) start_(control);
  }
  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override {
    if (epoch_) epoch_(control, report);
  }

 private:
  StartHook start_;
  EpochHook epoch_;
};

PolicyContext context_for(std::size_t num_ranks) {
  PolicyContext context;
  context.num_ranks = num_ranks;
  return context;
}

// --- registry ---------------------------------------------------------------

TEST(Registry, ListsEveryFamily) {
  const auto infos = Registry::instance().list();
  EXPECT_GE(infos.size(), 6u);
  for (const char* name : {"static", "dynamic", "two-level", "ilp-pairing",
                           "allocation", "budget-redistribution"}) {
    EXPECT_TRUE(Registry::instance().contains(name)) << name;
  }
  // list() is sorted by name.
  for (std::size_t i = 1; i < infos.size(); ++i) {
    EXPECT_LT(infos[i - 1].name, infos[i].name);
  }
}

TEST(Registry, UnknownNameSuggestsNearest) {
  const auto context = context_for(2);
  try {
    (void)Registry::instance().make("dynamik", context);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'dynamic'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Registry, UnknownNameFarFromEverythingListsNoGuess) {
  const auto context = context_for(2);
  try {
    (void)Registry::instance().make("zzzzzzzzzzzz", context);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos)
        << e.what();
  }
}

TEST(Registry, UnknownKeyNamesSchema) {
  const auto context = context_for(2);
  try {
    (void)Registry::instance().make("dynamic:bogus=1", context);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("max_diff"), std::string::npos)
        << "schema must be named: " << what;
  }
}

TEST(Registry, MalformedSpecs) {
  const auto context = context_for(2);
  EXPECT_THROW((void)Registry::instance().make("dynamic:max_diff", context),
               InvalidArgument);
  EXPECT_THROW(
      (void)Registry::instance().make("dynamic:max_diff=1,max_diff=2", context),
      InvalidArgument);
  EXPECT_THROW((void)Registry::instance().make("", context), InvalidArgument);
}

TEST(Registry, EmptySpecErrorNamesTheAlternatives) {
  // The empty spec is a distinct mistake from an unknown name: the error
  // must point at --list-policies and the explicit "none" baseline rather
  // than suggest a nearest match for "".
  const auto context = context_for(2);
  try {
    (void)Registry::instance().make("", context);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("empty policy spec"), std::string::npos) << what;
    EXPECT_NE(what.find("--list-policies"), std::string::npos) << what;
    EXPECT_NE(what.find("'none'"), std::string::npos) << what;
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
  }
}

TEST(Registry, OneEditTypoSuggestsEveryFamily) {
  // One-edit-distance typos of each registered family all get a
  // did-you-mean pointing at the real name.
  const auto context = context_for(2);
  const std::pair<const char*, const char*> typos[] = {
      {"statix", "static"},
      {"dynamc", "dynamic"},
      {"two-lever", "two-level"},
      {"allocaton", "allocation"},
  };
  for (const auto& [typo, correct] : typos) {
    try {
      (void)Registry::instance().make(typo, context);
      FAIL() << "expected InvalidArgument for '" << typo << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("did you mean '") +
                                           correct + "'"),
                std::string::npos)
          << typo << ": " << e.what();
    }
  }
}

TEST(Registry, ConfiguredPoliciesValidate) {
  const auto context = context_for(2);
  // Bad values reach the policy's own validate().
  EXPECT_THROW(
      (void)Registry::instance().make("ilp-pairing:smoothing=0", context),
      InvalidArgument);
  EXPECT_THROW(
      (void)Registry::instance().make("allocation:interval=0", context),
      InvalidArgument);
  EXPECT_THROW((void)Registry::instance().make(
                   "budget-redistribution:min_priority=7", context),
               InvalidArgument);
  // Good values build.
  EXPECT_NE(Registry::instance().make("allocation:interval=2,spread=false",
                                      context),
            nullptr);
}

TEST(Registry, StaticPrioritiesListMustMatchRankCount) {
  const auto context = context_for(2);
  EXPECT_NE(Registry::instance().make("static:priorities=5/4", context),
            nullptr);
  EXPECT_THROW(
      (void)Registry::instance().make("static:priorities=5/4/4", context),
      InvalidArgument);
}

TEST(Registry, SchemaRangesAreTheAcceptedRanges) {
  // Each endpoint a schema advertises builds, and one step past it throws.
  const auto context = context_for(2);
  const auto schema_of = [](const std::string& name) {
    for (const PolicyInfo& info : Registry::instance().list()) {
      if (info.name == name) return info.schema;
    }
    return std::string();
  };
  EXPECT_NE(schema_of("static").find("uniform=<1..6>"), std::string::npos);
  EXPECT_NE(schema_of("dynamic").find("high_priority=<2..6>,"
                                      "max_diff=<1..high_priority-1>"),
            std::string::npos);
  EXPECT_NE(schema_of("two-level").find("inner_high_priority=<2..6>"),
            std::string::npos);
  EXPECT_NE(schema_of("repartition").find("inner_max_diff=<1.."),
            std::string::npos);

  for (const char* spec :
       {"static:uniform=1", "static:uniform=6", "dynamic:high_priority=2",
        "dynamic:high_priority=6", "dynamic:max_diff=1", "dynamic:max_diff=5",
        "two-level:inner_high_priority=6,max_node_boost=0",
        "repartition:inner_max_diff=5"}) {
    EXPECT_NE(Registry::instance().make(spec, context), nullptr) << spec;
  }
  for (const char* spec :
       {"static:uniform=0", "static:uniform=7", "dynamic:high_priority=1",
        "dynamic:high_priority=7", "dynamic:max_diff=0", "dynamic:max_diff=6",
        "two-level:inner_high_priority=7", "repartition:inner_max_diff=0"}) {
    EXPECT_THROW((void)Registry::instance().make(spec, context),
                 InvalidArgument)
        << spec;
  }
}

TEST(Registry, ConfigMapIntList) {
  ConfigMap config("test", {{"xs", "6/4/4"}, {"bad", "6/x"}});
  EXPECT_EQ(config.get_int_list("xs"), (std::vector<int>{6, 4, 4}));
  EXPECT_TRUE(config.get_int_list("missing").empty());
  EXPECT_THROW((void)config.get_int_list("bad"), InvalidArgument);
}

TEST(Registry, EditDistance) {
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("dynamic", "dynamic"), 0u);
  EXPECT_EQ(edit_distance("dynamik", "dynamic"), 1u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
}

// --- byte-identity of the ported legacy policies ----------------------------

TEST(PortedPolicies, StaticMatchesDirectConstruction) {
  const auto app = workloads::build_metbench(misseated_metbench());
  StaticPriorityPolicy direct({5, 4, 5, 4});
  const auto a = run_flat(app, kMisseated, &direct);

  const auto context = context_for(4);
  const auto ported =
      Registry::instance().make("static:priorities=5/4/5/4", context);
  const auto b = run_flat(app, kMisseated, ported.get());

  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.imbalance, b.imbalance);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.priority_resets, b.priority_resets);
}

TEST(PortedPolicies, DynamicMatchesDirectConstruction) {
  const auto app = imbalanced_pair(8, 5.0);
  DynamicBalancerConfig config;
  config.max_diff = 2;
  DynamicBalancer direct(config);
  const auto a = run_flat(app, kPair, &direct);

  const auto context = context_for(2);
  const auto ported = Registry::instance().make("dynamic:max_diff=2", context);
  const auto b = run_flat(app, kPair, ported.get());

  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.imbalance, b.imbalance);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.priority_resets, b.priority_resets);
  EXPECT_GT(direct.adjustments(), 0u);
}

TEST(PortedPolicies, TwoLevelMatchesDirectConstruction) {
  cluster::SkewedClusterConfig skew;
  skew.iterations = 5;
  const auto built = cluster::make_skewed_cluster(skew);
  cluster::ClusterConfig config;
  config.num_nodes = 2;
  config.node = fast_config();

  TwoLevelBalancer direct;
  cluster::ClusterEngine engine_a(built.app, built.placement, config);
  engine_a.set_policy(&direct);
  const auto a = engine_a.run();

  const auto ported =
      Registry::instance().make("two-level", context_for(built.app.size()));
  cluster::ClusterEngine engine_b(built.app, built.placement, config);
  engine_b.set_policy(ported.get());
  const auto b = engine_b.run();

  EXPECT_EQ(a.flat.exec_time, b.flat.exec_time);
  EXPECT_EQ(a.flat.imbalance, b.flat.imbalance);
  EXPECT_EQ(a.flat.events, b.flat.events);
  EXPECT_EQ(a.flat.priority_resets, b.flat.priority_resets);
}

TEST(PortedPolicies, TwoLevelAndRepartitionShareTheirInnerLevel) {
  // With both outer loops held back (no boost, no migration budget), the
  // two policies reduce to the same one-DynamicBalancer-per-node driver
  // and must reproduce each other bit for bit.
  cluster::SkewedClusterConfig skew;
  skew.iterations = 5;
  const auto built = cluster::make_skewed_cluster(skew);
  cluster::ClusterConfig config;
  config.num_nodes = 2;
  config.node = fast_config();
  const auto run = [&](const std::string& spec) {
    std::unique_ptr<mpisim::BalancePolicy> policy;
    if (!spec.empty()) {
      policy = Registry::instance().make(spec, context_for(built.app.size()));
    }
    cluster::ClusterEngine engine(built.app, built.placement, config);
    engine.set_policy(policy.get());
    return engine.run();
  };
  const auto none = run("");
  const auto a = run("repartition:budget=0");
  const auto b = run("two-level:max_node_boost=0");

  EXPECT_NE(a.flat.exec_time, none.flat.exec_time)
      << "the inner balancers must actually have acted";
  EXPECT_EQ(a.flat.exec_time, b.flat.exec_time);
  EXPECT_EQ(a.flat.events, b.flat.events);
  EXPECT_EQ(a.flat.priority_resets, b.flat.priority_resets);
  ASSERT_EQ(a.flat.metrics.ranks.size(), b.flat.metrics.ranks.size());
  for (std::size_t r = 0; r < a.flat.metrics.ranks.size(); ++r) {
    const auto& ma = a.flat.metrics.ranks[r];
    const auto& mb = b.flat.metrics.ranks[r];
    EXPECT_EQ(ma.compute, mb.compute) << "rank " << r;
    EXPECT_EQ(ma.wait, mb.wait) << "rank " << r;
    EXPECT_EQ(ma.spin, mb.spin) << "rank " << r;
    EXPECT_EQ(ma.preempted, mb.preempted) << "rank " << r;
    EXPECT_EQ(ma.priority_changes, mb.priority_changes) << "rank " << r;
  }
}

// --- placement moves --------------------------------------------------------

TEST(PlacementMoves, IllegalMovesRejectedWithValues) {
  bool probed = false;
  HookProbe probe([&](mpisim::EngineControl& control) {
    probed = true;
    // Target seat occupied by rank 1.
    EXPECT_THROW(control.move_rank(RankId{0}, CpuId{CoreId{0}, ThreadSlot{1}}),
                 InvalidArgument);
    // Seat outside the chip.
    EXPECT_THROW(control.move_rank(RankId{0}, CpuId{CoreId{5}, ThreadSlot{0}}),
                 InvalidArgument);
    // Rank outside the application.
    try {
      control.move_rank(RankId{9}, CpuId{CoreId{1}, ThreadSlot{0}});
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("rank out of range"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(control.swap_ranks(RankId{0}, RankId{9}), InvalidArgument);
    // A failed actuation leaves the placement untouched.
    EXPECT_EQ(control.placement().cpu_of_rank[0],
              (CpuId{CoreId{0}, ThreadSlot{0}}));
  });
  (void)run_flat(imbalanced_pair(1), kPair, &probe);
  EXPECT_TRUE(probed);
}

TEST(PlacementMoves, MoveUpdatesPlacementAndKeepsPriority) {
  std::optional<CpuId> seat_after;
  std::optional<int> priority_after;
  HookProbe probe([&](mpisim::EngineControl& control) {
    control.set_rank_priority(RankId{0}, 5);
    control.move_rank(RankId{0}, CpuId{CoreId{1}, ThreadSlot{0}});
    seat_after = control.placement().cpu_of_rank[0];
    priority_after = control.rank_priority(RankId{0});
  });
  const auto moved = run_flat(imbalanced_pair(), kPair, &probe);
  ASSERT_TRUE(seat_after.has_value());
  EXPECT_EQ(*seat_after, (CpuId{CoreId{1}, ThreadSlot{0}}));
  EXPECT_EQ(priority_after, 5);

  // Un-sharing the core must speed the run up — i.e. the engine really
  // re-derived its rates and predictions after the migration.
  HookProbe keep_priority([&](mpisim::EngineControl& control) {
    control.set_rank_priority(RankId{0}, 5);
  });
  const auto baseline = run_flat(imbalanced_pair(), kPair, &keep_priority);
  EXPECT_LT(moved.exec_time, baseline.exec_time * 0.98);
}

TEST(PlacementMoves, SwapIsDeterministic) {
  const auto app = workloads::build_metbench(misseated_metbench());
  Cadence cadence = kIlpPairingCadence;
  cadence.interval = 4;

  IlpPairingPolicy first(cadence);
  const auto a = run_flat(app, kMisseated, &first);
  IlpPairingPolicy second(cadence);
  const auto b = run_flat(app, kMisseated, &second);

  EXPECT_GT(first.moves(), 0u) << "the misseated layout must trigger swaps";
  EXPECT_EQ(first.moves(), second.moves());
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.trace.end_time(), b.trace.end_time());
}

TEST(PlacementMoves, ApplySeatingRejectsDuplicateTargets) {
  bool probed = false;
  HookProbe probe([&](mpisim::EngineControl& control) {
    probed = true;
    const std::vector<SeatAssignment> clash = {
        {RankId{0}, CpuId{CoreId{1}, ThreadSlot{0}}},
        {RankId{1}, CpuId{CoreId{1}, ThreadSlot{0}}},
    };
    EXPECT_THROW((void)apply_seating(control, clash), InvalidArgument);
    // An injective map is realised with at most one actuation per rank.
    const std::vector<SeatAssignment> ok = {
        {RankId{0}, CpuId{CoreId{1}, ThreadSlot{0}}},
        {RankId{1}, CpuId{CoreId{1}, ThreadSlot{1}}},
    };
    EXPECT_LE(apply_seating(control, ok), 2u);
    EXPECT_EQ(control.placement().cpu_of_rank[0],
              (CpuId{CoreId{1}, ThreadSlot{0}}));
    EXPECT_EQ(control.placement().cpu_of_rank[1],
              (CpuId{CoreId{1}, ThreadSlot{1}}));
  });
  (void)run_flat(imbalanced_pair(1), kPair, &probe);
  EXPECT_TRUE(probed);
}

TEST(PlacementMoves, CrossNodeSwapRejected) {
  cluster::SkewedClusterConfig skew;
  skew.iterations = 2;
  const auto built = cluster::make_skewed_cluster(skew);
  cluster::ClusterConfig config;
  config.num_nodes = 2;
  config.node = fast_config();

  bool probed = false;
  HookProbe probe([&](mpisim::EngineControl& control) {
    probed = true;
    ASSERT_EQ(control.num_nodes(), 2u);
    // Find one rank per node.
    std::optional<RankId> on0, on1;
    for (std::size_t r = 0; r < control.num_ranks(); ++r) {
      const RankId rank{static_cast<std::uint32_t>(r)};
      (control.node_of(rank) == 0 ? on0 : on1) = rank;
    }
    ASSERT_TRUE(on0 && on1);
    try {
      control.swap_ranks(*on0, *on1);
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("different nodes"),
                std::string::npos)
          << e.what();
    }
  });
  cluster::ClusterEngine engine(built.app, built.placement, config);
  engine.set_policy(&probe);
  (void)engine.run();
  EXPECT_TRUE(probed);
}

// --- budgets ----------------------------------------------------------------

TEST(Budgets, FlatEngineEnforcesInstalledCap) {
  bool probed = false;
  HookProbe probe([&](mpisim::EngineControl& control) {
    probed = true;
    EXPECT_EQ(control.node_budget(0), mpisim::kUnlimitedBudget);
    EXPECT_THROW(control.node_budget(5), InvalidArgument);

    const int sum = control.node_priority_sum(0);
    EXPECT_THROW(control.install_budgets(sum - 1), InvalidArgument);
    control.install_budgets(sum + 1);
    EXPECT_EQ(control.node_budget(0), sum + 1);

    const int p0 = control.rank_priority(RankId{0});
    // One level of headroom: +2 busts the cap, +1 fits.
    EXPECT_THROW(control.set_rank_priority(RankId{0}, p0 + 2),
                 InvalidArgument);
    control.set_rank_priority(RankId{0}, p0 + 1);
    EXPECT_EQ(control.node_priority_sum(0), sum + 1);

    // Flat engine: the only node is 0 and self-transfers are no-ops.
    control.transfer_budget(0, 0, 1);
    EXPECT_EQ(control.node_budget(0), sum + 1);
    EXPECT_THROW(control.transfer_budget(0, 1, 1), InvalidArgument);
  });
  (void)run_flat(imbalanced_pair(1), kPair, &probe);
  EXPECT_TRUE(probed);
}

TEST(Budgets, ExitedRankReadsOffAfterItsSeatIsReused) {
  // Rank 0 passes both of its (empty) waitall epochs and exits at once;
  // at epoch 1 rank 2 moves onto its vacated seat. The exited rank must
  // keep reading OFF, from the control and in later epoch reports, and
  // the per-node sum must count the two live ranks only, as the budget
  // cap does.
  mpisim::Application app;
  app.ranks.resize(3);
  app.ranks[0].compute(kid(), 1e7).wait_all().wait_all();
  for (std::size_t r = 1; r < 3; ++r) {
    app.ranks[r].compute(kid(), 1e7).wait_all().compute(kid(), 1e8);
    app.ranks[r].wait_all().compute(kid(), 1e8);
  }
  const int medium = smt::level(smt::kDefaultPriority);
  int epochs = 0;
  HookProbe probe(
      [](mpisim::EngineControl&) {},
      [&](mpisim::EngineControl& control, const mpisim::EpochReport& report) {
        ++epochs;
        EXPECT_EQ(report.ranks[0].priority, 0) << "epoch " << report.epoch;
        if (report.epoch != 1) return;
        control.move_rank(RankId{2}, CpuId{CoreId{0}, ThreadSlot{0}});
        EXPECT_EQ(control.rank_priority(RankId{0}), 0);
        EXPECT_EQ(control.rank_priority(RankId{2}), medium);
        EXPECT_EQ(control.node_priority_sum(0), 2 * medium);
        EXPECT_THROW(control.install_budgets(2 * medium - 1), InvalidArgument);
        control.install_budgets(2 * medium);
      });
  (void)run_flat(app, mpisim::Placement::from_linear({0, 1, 2}), &probe);
  EXPECT_EQ(epochs, 2);
}

TEST(Budgets, ClusterTransfersConserveTotal) {
  cluster::SkewedClusterConfig skew;
  skew.iterations = 3;
  const auto built = cluster::make_skewed_cluster(skew);
  cluster::ClusterConfig config;
  config.num_nodes = 2;
  config.node = fast_config();

  bool start_probed = false;
  bool epoch_probed = false;
  HookProbe probe(
      [&](mpisim::EngineControl& control) {
        start_probed = true;
        EXPECT_THROW(control.transfer_budget(0, 1, 1), InvalidArgument)
            << "transfers before install_budgets must be rejected";
        const int sum0 = control.node_priority_sum(0);
        const int sum1 = control.node_priority_sum(1);
        control.install_budgets(std::max(sum0, sum1) + 2);
      },
      [&](mpisim::EngineControl& control, const mpisim::EpochReport&) {
        if (epoch_probed) return;
        epoch_probed = true;
        const int b0 = control.node_budget(0);
        const int b1 = control.node_budget(1);
        control.transfer_budget(0, 1, 1);
        EXPECT_EQ(control.node_budget(0), b0 - 1);
        EXPECT_EQ(control.node_budget(1), b1 + 1);
        EXPECT_EQ(control.node_budget(0) + control.node_budget(1), b0 + b1);
        // The donor may never drop below its current priority sum.
        EXPECT_THROW(control.transfer_budget(0, 1, 1000), InvalidArgument);
        EXPECT_THROW(control.transfer_budget(0, 7, 1), InvalidArgument);
      });
  cluster::ClusterEngine engine(built.app, built.placement, config);
  engine.set_policy(&probe);
  (void)engine.run();
  EXPECT_TRUE(start_probed);
  EXPECT_TRUE(epoch_probed);
}

TEST(Budgets, RedistributionPolicyStaysWithinCaps) {
  cluster::SkewedClusterConfig skew;
  skew.iterations = 8;
  const auto built = cluster::make_skewed_cluster(skew);
  cluster::ClusterConfig config;
  config.num_nodes = 2;
  config.node = fast_config();

  BudgetRedistributionPolicy policy;
  bool checked = false;
  HookProbe auditor(
      [&](mpisim::EngineControl& control) { policy.on_start(control); },
      [&](mpisim::EngineControl& control, const mpisim::EpochReport& report) {
        policy.on_epoch(control, report);
        for (std::uint32_t node = 0; node < control.num_nodes(); ++node) {
          const int budget = control.node_budget(node);
          ASSERT_NE(budget, mpisim::kUnlimitedBudget);
          EXPECT_LE(control.node_priority_sum(node), budget);
          checked = true;
        }
      });
  cluster::ClusterEngine engine(built.app, built.placement, config);
  engine.set_policy(&auditor);
  (void)engine.run();
  EXPECT_TRUE(checked);
  EXPECT_GT(policy.adjustments(), 0u);
}

// --- epoch report enrichment ------------------------------------------------

TEST(EpochReport, CarriesIssuedSharePriorityAndSeat) {
  std::optional<mpisim::EpochReport> first;
  HookProbe probe(
      {}, [&](mpisim::EngineControl& control, const mpisim::EpochReport& r) {
        if (first) return;
        first = r;
        for (std::size_t i = 0; i < r.ranks.size(); ++i) {
          const RankId rank{static_cast<std::uint32_t>(i)};
          EXPECT_EQ(r.ranks[i].priority, control.rank_priority(rank));
          EXPECT_EQ(r.ranks[i].cpu, control.placement().cpu_of_rank[i]);
        }
      });
  (void)run_flat(imbalanced_pair(), kPair, &probe);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->ranks.size(), 2u);
  EXPECT_EQ(first->epoch, 1);
  EXPECT_GT(first->now, 0.0);
  double share_sum = 0.0;
  for (const auto& rank : first->ranks) {
    EXPECT_GT(rank.issued, 0.0) << "every rank computed during epoch 1";
    EXPECT_GE(rank.decode_share, 0.0);
    EXPECT_LE(rank.decode_share, 1.0);
    EXPECT_GT(rank.compute + rank.wait, 0.0);
    share_sum += rank.decode_share;
  }
  // Both ranks share core 0, so their decode shares partition (at most)
  // the core's whole bandwidth.
  EXPECT_GT(share_sum, 0.0);
  EXPECT_LE(share_sum, 1.0 + 1e-9);
}

// --- new families fix what priorities cannot --------------------------------

TEST(NewFamilies, AllocationRepairsMisseatingWherePrioritiesCannot) {
  const auto app = workloads::build_metbench(misseated_metbench());
  const auto none = run_flat(app, kMisseated, nullptr);

  // Both heavies share a core, so every per-core wait gap is symmetric
  // and the paper's priority balancer finds nothing to do.
  DynamicBalancer dynamic;
  const auto under_dynamic = run_flat(app, kMisseated, &dynamic);
  EXPECT_EQ(dynamic.adjustments(), 0u);
  EXPECT_EQ(under_dynamic.exec_time, none.exec_time);

  // Re-packing seats does repair it.
  AllocationConfig config;
  config.cadence.interval = 2;
  AllocationPolicy allocation(config);
  const auto under_allocation = run_flat(app, kMisseated, &allocation);
  EXPECT_GT(allocation.moves(), 0u);
  EXPECT_LT(under_allocation.exec_time, none.exec_time * 0.98);
}


// --- epoch cadence and run-to-run reuse -------------------------------------

TEST(PolicyCadence, DueFromWarmupThenEveryInterval) {
  const Cadence cadence{.warmup_epochs = 2, .interval = 4, .smoothing = 0.5};
  for (const int epoch : {2, 6, 10}) EXPECT_TRUE(cadence.due(epoch)) << epoch;
  for (const int epoch : {1, 3, 4, 5, 7}) {
    EXPECT_FALSE(cadence.due(epoch)) << epoch;
  }
  // Epochs are 1-based: without warm-up the first action is at `interval`.
  const Cadence eager{.warmup_epochs = 0, .interval = 3, .smoothing = 1.0};
  EXPECT_FALSE(eager.due(1));
  EXPECT_TRUE(eager.due(3));
  EXPECT_EQ(cadence.smooth(1.0, 3.0), 2.0);
  EXPECT_EQ(eager.smooth(1.0, 3.0), 3.0);

  EXPECT_THROW((Cadence{.warmup_epochs = -1}.validate()), InvalidArgument);
  EXPECT_THROW((Cadence{.interval = 0}.validate()), InvalidArgument);
  EXPECT_THROW((Cadence{.smoothing = 0.0}.validate()), InvalidArgument);
  EXPECT_THROW((Cadence{.smoothing = 1.5}.validate()), InvalidArgument);
  EXPECT_NO_THROW(Cadence{}.validate());
}

/// Both layouts hold four ranks, so one `static` priority vector fits
/// either: the misseated MetBench flat layout and a 2-node skewed cluster
/// with one heavy/light pair per node. Every run gets a fresh engine; the
/// engines share one sampler, whose measurements are pure functions of
/// their load, only to keep the cycle model's work down.
class TwoLayouts {
 public:
  TwoLayouts() {
    cluster::SkewedClusterConfig skew;
    skew.ranks_per_node = 2;
    skew.iterations = 6;
    skewed_ = cluster::make_skewed_cluster(skew);
    cluster_config_.num_nodes = 2;
    cluster_config_.node = fast_config();
  }

  [[nodiscard]] std::size_t num_ranks() const { return flat_app_.size(); }

  mpisim::RunResult run(bool on_cluster, mpisim::BalancePolicy* policy) const {
    if (!on_cluster) {
      mpisim::Engine engine(flat_app_, kMisseated, fast_config(), sampler_);
      engine.set_policy(policy);
      return engine.run();
    }
    cluster::ClusterEngine engine(skewed_.app, skewed_.placement,
                                  cluster_config_, sampler_);
    engine.set_policy(policy);
    return engine.run().flat;
  }

 private:
  mpisim::Application flat_app_ =
      workloads::build_metbench(misseated_metbench());
  std::shared_ptr<smt::ThroughputSampler> sampler_ =
      std::make_shared<smt::ThroughputSampler>(fast_config().chip,
                                               fast_config().sampler);
  cluster::SkewedCluster skewed_;
  cluster::ClusterConfig cluster_config_;
};

void expect_same_run(const mpisim::RunResult& a, const mpisim::RunResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.exec_time, b.exec_time) << what;
  EXPECT_EQ(a.events, b.events) << what;
  ASSERT_EQ(a.metrics.ranks.size(), b.metrics.ranks.size()) << what;
  for (std::size_t r = 0; r < a.metrics.ranks.size(); ++r) {
    EXPECT_EQ(a.metrics.ranks[r].compute, b.metrics.ranks[r].compute)
        << what << " rank " << r;
    EXPECT_EQ(a.metrics.ranks[r].wait, b.metrics.ranks[r].wait)
        << what << " rank " << r;
    EXPECT_EQ(a.metrics.ranks[r].spin, b.metrics.ranks[r].spin)
        << what << " rank " << r;
  }
}

TEST(PolicyReuse, EveryFamilyStartsEachRunClean) {
  const TwoLayouts layouts;
  ASSERT_EQ(layouts.num_ranks(), 4u);
  const auto context = context_for(layouts.num_ranks());
  for (const PolicyInfo& info : Registry::instance().list()) {
    mpisim::RunResult fresh[2];
    for (const bool on_cluster : {false, true}) {
      const auto policy = Registry::instance().make(info.name, context);
      fresh[on_cluster ? 1 : 0] = layouts.run(on_cluster, policy.get());
    }
    // One instance, two runs on fresh engines, in either order: the
    // second run must not see anything the first one left behind.
    for (const bool cluster_first : {false, true}) {
      const auto reused = Registry::instance().make(info.name, context);
      for (const bool on_cluster : {cluster_first, !cluster_first}) {
        expect_same_run(layouts.run(on_cluster, reused.get()),
                        fresh[on_cluster ? 1 : 0],
                        info.name + (on_cluster ? " on the cluster"
                                                : " on the flat layout") +
                            (on_cluster == cluster_first ? ", first run"
                                                         : ", second run"));
      }
    }
  }
}

TEST(PolicyCadence, SpelledOutDefaultsMatchTheBareName) {
  const TwoLayouts layouts;
  const auto context = context_for(layouts.num_ranks());
  const std::pair<const char*, const char*> specs[] = {
      {"allocation", "allocation:warmup_epochs=2,interval=4,smoothing=0.5"},
      {"ilp-pairing", "ilp-pairing:warmup_epochs=2,interval=8,smoothing=0.5"},
      {"budget-redistribution",
       "budget-redistribution:warmup_epochs=2,interval=2,smoothing=0.5"},
  };
  for (const auto& [bare, spelled] : specs) {
    for (const bool on_cluster : {false, true}) {
      const auto a = Registry::instance().make(bare, context);
      const auto b = Registry::instance().make(spelled, context);
      expect_same_run(layouts.run(on_cluster, a.get()),
                      layouts.run(on_cluster, b.get()),
                      std::string(spelled) + (on_cluster ? " cluster" : " flat"));
    }
  }
}

}  // namespace
}  // namespace smtbal::policy
