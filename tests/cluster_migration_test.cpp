// Cross-node rank migration: the multilevel partitioner, the
// ClusterEngine::migrate_rank mechanics (handoff, pricing, exited-rank
// semantics), the seat-freed-on-exit regression, the notification
// timestamp regression, and the migrate dimension of ScenarioSpec.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"
#include "cluster/partition.hpp"
#include "cluster/placement.hpp"
#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "mpisim/engine.hpp"
#include "mpisim/observer.hpp"
#include "policy/repartition.hpp"
#include "simcheck/scenario.hpp"

namespace smtbal::cluster {
namespace {

isa::KernelId kid() {
  return isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;
}

// --- partitioner -----------------------------------------------------------

TEST(Partition, KeepsChattyPairsTogether) {
  // Two heavy-talking pairs, one feather-weight cross edge, and a
  // heavy/light load profile whose only balanced split is pair-aligned:
  // the partitioner must land on the pairs-together minimum cut.
  PartitionGraph graph(4);
  graph.set_vertex_weight(0, 2.0);
  graph.set_vertex_weight(1, 1.0);
  graph.set_vertex_weight(2, 2.0);
  graph.set_vertex_weight(3, 1.0);
  graph.add_edge(0, 1, 100.0);
  graph.add_edge(2, 3, 100.0);
  graph.add_edge(0, 2, 1.0);
  PartitionOptions options;
  options.capacities = {3, 3};
  const PartitionResult cut = partition(graph, options);
  EXPECT_EQ(cut.part_of_vertex[0], cut.part_of_vertex[1]);
  EXPECT_EQ(cut.part_of_vertex[2], cut.part_of_vertex[3]);
  EXPECT_NE(cut.part_of_vertex[0], cut.part_of_vertex[2]);
  EXPECT_DOUBLE_EQ(cut.cut_weight, 1.0);
}

TEST(Partition, CoarseningGluesChattyPairsOnLargerGraphs) {
  // Twelve ranks in six heavy-talking pairs plus a light ring between
  // the pair leads — big enough that heavy-edge coarsening actually
  // runs. No pair may end up split across nodes, and the split must
  // stay seat-balanced, so no 100-weight edge is ever cut.
  PartitionGraph graph(12);
  for (std::uint32_t v = 0; v < 12; ++v) graph.set_vertex_weight(v, 1.0);
  for (std::uint32_t p = 0; p < 6; ++p) {
    graph.add_edge(2 * p, 2 * p + 1, 100.0);
    graph.add_edge(2 * p, 2 * ((p + 1) % 6), 1.0);
  }
  PartitionOptions options;
  options.capacities = {6, 6};
  const PartitionResult cut = partition(graph, options);
  for (std::uint32_t p = 0; p < 6; ++p) {
    EXPECT_EQ(cut.part_of_vertex[2 * p], cut.part_of_vertex[2 * p + 1])
        << "pair " << p << " split across parts";
  }
  EXPECT_DOUBLE_EQ(cut.part_load[0], 6.0);
  EXPECT_DOUBLE_EQ(cut.part_load[1], 6.0);
  EXPECT_LT(cut.cut_weight, 100.0);
}

TEST(Partition, BalancesSkewedWeights) {
  // One heavy vertex and four light ones: the heavy one gets a part to
  // (almost) itself instead of stacking onto the light crowd.
  PartitionGraph graph(5);
  graph.set_vertex_weight(0, 4.0);
  for (std::uint32_t v = 1; v < 5; ++v) graph.set_vertex_weight(v, 1.0);
  PartitionOptions options;
  options.capacities = {4, 4};
  const PartitionResult cut = partition(graph, options);
  ASSERT_EQ(cut.part_load.size(), 2u);
  EXPECT_DOUBLE_EQ(cut.part_load[0] + cut.part_load[1], 8.0);
  // Perfect balance 4/4 is reachable: the heavy vertex alone vs the rest.
  EXPECT_DOUBLE_EQ(std::max(cut.part_load[0], cut.part_load[1]), 4.0);
}

TEST(Partition, HonoursSeatCapacities) {
  PartitionGraph graph(4);
  for (std::uint32_t v = 0; v < 4; ++v) graph.set_vertex_weight(v, 1.0);
  PartitionOptions options;
  options.capacities = {1, 3};
  const PartitionResult cut = partition(graph, options);
  std::vector<std::uint32_t> seats(2, 0);
  for (const std::uint32_t p : cut.part_of_vertex) ++seats[p];
  EXPECT_LE(seats[0], 1u);
  EXPECT_LE(seats[1], 3u);
}

TEST(Partition, IsDeterministic) {
  auto build = [] {
    PartitionGraph graph(8);
    for (std::uint32_t v = 0; v < 8; ++v) {
      graph.set_vertex_weight(v, 1.0 + static_cast<double>(v % 3));
    }
    for (std::uint32_t v = 0; v < 8; ++v) {
      graph.add_edge(v, (v + 1) % 8, 10.0 + static_cast<double>(v));
      graph.add_edge(v, (v + 3) % 8, 2.0);
    }
    return graph;
  };
  PartitionOptions options;
  options.capacities = {4, 4};
  options.seed = 7;
  const PartitionResult a = partition(build(), options);
  const PartitionResult b = partition(build(), options);
  EXPECT_EQ(a.part_of_vertex, b.part_of_vertex);
  EXPECT_DOUBLE_EQ(a.cut_weight, b.cut_weight);
}

TEST(Partition, RejectsInfeasibleInputs) {
  PartitionGraph graph(5);
  PartitionOptions options;
  EXPECT_THROW(partition(graph, options), InvalidArgument);  // no parts
  options.capacities = {2, 2};  // 4 seats for 5 vertices
  EXPECT_THROW(partition(graph, options), InvalidArgument);
}

TEST(PartitionGraph, AccumulatesEdgesAndIgnoresSelfLoops) {
  PartitionGraph graph(3);
  graph.add_edge(0, 1, 2.0);
  graph.add_edge(1, 0, 3.0);  // undirected: same edge
  graph.add_edge(1, 1, 100.0);  // self-loop: ignored
  graph.add_edge(0, 2, -1.0);  // non-positive: ignored
  EXPECT_DOUBLE_EQ(graph.neighbors(0).at(1), 5.0);
  EXPECT_TRUE(graph.neighbors(1).count(1) == 0);
  EXPECT_TRUE(graph.neighbors(0).count(2) == 0);
  EXPECT_THROW(graph.add_edge(0, 3, 1.0), InvalidArgument);
  EXPECT_THROW(graph.set_vertex_weight(3, 1.0), InvalidArgument);
}

// --- migrate_rank mechanics ------------------------------------------------

/// Three ranks, one waitall epoch each. Rank 1 exchanges with rank 0 up
/// front and exits almost immediately; ranks 0 and 2 grind through
/// `instructions` first, so by the time the global epoch is reported
/// rank 1 is long done and its seat is free again — while 0 and 2 still
/// have a tail to compute (the epoch hook needs them alive to actuate).
mpisim::Application three_rank_app(double instructions = 2e8) {
  mpisim::Application app;
  app.name = "migrate-mechanics";
  app.ranks.resize(3);
  app.ranks[0]
      .send(RankId{1}, 64)
      .compute(kid(), instructions)
      .send(RankId{2}, 64)
      .recv(RankId{2}, 64)
      .wait_all()
      .compute(kid(), instructions);
  app.ranks[1].recv(RankId{0}, 64).wait_all();
  app.ranks[2]
      .compute(kid(), instructions)
      .send(RankId{0}, 64)
      .recv(RankId{0}, 64)
      .wait_all()
      .compute(kid(), instructions);
  return app;
}

/// Ranks 0, 1 on node 0 (seats 0, 1); rank 2 on node 1 (seat 0).
ClusterPlacement three_rank_placement() {
  return ClusterPlacement::explicit_map(
      {0, 0, 1}, mpisim::Placement::from_linear({0, 1, 0}));
}

ClusterConfig two_node_config() {
  ClusterConfig config;
  config.num_nodes = 2;
  config.node.sampler = {.warmup_cycles = 20000, .window_cycles = 80000,
                         .seed = 1};
  return config;
}

/// Calls `fn(control)` on the first reported epoch.
class EpochHook final : public mpisim::BalancePolicy {
 public:
  using Fn = std::function<void(mpisim::EngineControl&)>;
  explicit EpochHook(Fn fn) : fn_(std::move(fn)) {}
  [[nodiscard]] std::string_view name() const override { return "hook"; }
  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override {
    (void)report;
    if (fired_) return;
    fired_ = true;
    fn_(control);
  }

 private:
  Fn fn_;
  bool fired_ = false;
};

/// Records every priority / placement / migration notification time.
class NotificationRecorder final : public mpisim::SimObserver {
 public:
  void on_priority_change(RankId, int, int, SimTime now) override {
    priority_times.push_back(now);
  }
  void on_placement_change(RankId, CpuId, CpuId, SimTime now) override {
    placement_times.push_back(now);
  }
  void on_rank_migration(RankId rank, std::uint32_t from, std::uint32_t to,
                         SimTime now) override {
    migrations.push_back({rank.value(), from, to, now});
  }

  struct Migration {
    std::uint32_t rank, from, to;
    SimTime now;
  };
  std::vector<SimTime> priority_times;
  std::vector<SimTime> placement_times;
  std::vector<Migration> migrations;
};

TEST(ClusterMigration, MigrateReseatsAndPricesTheTransfer) {
  EpochHook hook([](mpisim::EngineControl& control) {
    control.migrate_rank(RankId{2}, 0, CpuId{CoreId{1}, ThreadSlot{0}});
  });
  NotificationRecorder recorder;
  ClusterEngine engine(three_rank_app(), three_rank_placement(),
                       two_node_config());
  engine.set_policy(&hook);
  engine.add_observer(&recorder);
  const ClusterRunResult result = engine.run();

  ASSERT_EQ(recorder.migrations.size(), 1u);
  EXPECT_EQ(recorder.migrations[0].rank, 2u);
  EXPECT_EQ(recorder.migrations[0].from, 1u);
  EXPECT_EQ(recorder.migrations[0].to, 0u);
  EXPECT_GT(recorder.migrations[0].now, 0.0);
  // The source node pays: one migration, the configured resident state,
  // and a positive stall while it crosses the interconnect.
  ASSERT_EQ(result.nodes.size(), 2u);
  EXPECT_EQ(result.nodes[1].migrations, 1u);
  EXPECT_EQ(result.nodes[1].bytes_migrated,
            ClusterConfig::MigrationConfig{}.resident_state_bytes);
  EXPECT_GT(result.nodes[1].migration_stall, 0.0);
  EXPECT_EQ(result.nodes[0].migrations, 0u);
}

TEST(ClusterMigration, ExitedSeatIsFreeForMigrants) {
  // Rank 1 exited long before the epoch fires; its seat must be free in
  // the kernel AND the simulation core (the occupancy mirror once kept
  // the seat marked and tripped the seating invariant on landing).
  EpochHook hook([](mpisim::EngineControl& control) {
    EXPECT_EQ(control.rank_priority(RankId{1}), 0);  // exited
    control.migrate_rank(RankId{2}, 0, CpuId{CoreId{0}, ThreadSlot{1}});
  });
  ClusterEngine engine(three_rank_app(), three_rank_placement(),
                       two_node_config());
  engine.set_policy(&hook);
  const ClusterRunResult result = engine.run();
  EXPECT_EQ(result.nodes[1].migrations, 1u);
}

TEST(ClusterMigration, OccupiedTargetThrows) {
  EpochHook hook([](mpisim::EngineControl& control) {
    // Rank 0 is still computing on node 0 seat 0.
    control.migrate_rank(RankId{2}, 0, CpuId{CoreId{0}, ThreadSlot{0}});
  });
  ClusterEngine engine(three_rank_app(), three_rank_placement(),
                       two_node_config());
  engine.set_policy(&hook);
  EXPECT_THROW(engine.run(), InvalidArgument);
}

TEST(ClusterMigration, ExitedRankIsIgnored) {
  EpochHook hook([](mpisim::EngineControl& control) {
    control.migrate_rank(RankId{1}, 1, CpuId{CoreId{1}, ThreadSlot{0}});
  });
  NotificationRecorder recorder;
  ClusterEngine engine(three_rank_app(), three_rank_placement(),
                       two_node_config());
  engine.set_policy(&hook);
  engine.add_observer(&recorder);
  const ClusterRunResult result = engine.run();
  EXPECT_TRUE(recorder.migrations.empty());
  EXPECT_EQ(result.nodes[0].migrations + result.nodes[1].migrations, 0u);
}

TEST(ClusterMigration, SameNodeTargetDegradesToMove) {
  EpochHook hook([](mpisim::EngineControl& control) {
    control.migrate_rank(RankId{0}, 0, CpuId{CoreId{1}, ThreadSlot{0}});
  });
  NotificationRecorder recorder;
  ClusterEngine engine(three_rank_app(), three_rank_placement(),
                       two_node_config());
  engine.set_policy(&hook);
  engine.add_observer(&recorder);
  const ClusterRunResult result = engine.run();
  // A within-node reseat is a placement change, never a migration.
  EXPECT_TRUE(recorder.migrations.empty());
  ASSERT_FALSE(recorder.placement_times.empty());
  EXPECT_EQ(result.nodes[0].migrations + result.nodes[1].migrations, 0u);
}

// --- notification timestamps (regression) ----------------------------------

TEST(NotificationTimestamps, ClusterActuationsCarryRealSimTime) {
  // Mid-run priority, placement and migration notifications once carried
  // a hardcoded 0.0 on the bus-only paths; they must report the epoch's
  // simulation time.
  EpochHook hook([](mpisim::EngineControl& control) {
    control.set_rank_priority(RankId{0}, 2);
    control.move_rank(RankId{0}, CpuId{CoreId{1}, ThreadSlot{0}});
    control.migrate_rank(RankId{2}, 0, CpuId{CoreId{1}, ThreadSlot{1}});
  });
  NotificationRecorder recorder;
  ClusterEngine engine(three_rank_app(), three_rank_placement(),
                       two_node_config());
  engine.set_policy(&hook);
  engine.add_observer(&recorder);
  (void)engine.run();
  ASSERT_FALSE(recorder.priority_times.empty());
  ASSERT_FALSE(recorder.placement_times.empty());
  ASSERT_FALSE(recorder.migrations.empty());
  for (const SimTime t : recorder.priority_times) EXPECT_GT(t, 0.0);
  for (const SimTime t : recorder.placement_times) EXPECT_GT(t, 0.0);
  for (const auto& m : recorder.migrations) EXPECT_GT(m.now, 0.0);
}

TEST(NotificationTimestamps, FlatActuationsCarryRealSimTime) {
  mpisim::Application app;
  app.ranks.resize(2);
  app.ranks[0].compute(kid(), 1e8).barrier().compute(kid(), 1e8);
  app.ranks[1].compute(kid(), 1e8).barrier().compute(kid(), 1e8);
  EpochHook hook([](mpisim::EngineControl& control) {
    control.set_rank_priority(RankId{0}, 2);
    control.move_rank(RankId{0}, CpuId{CoreId{1}, ThreadSlot{0}});
  });
  NotificationRecorder recorder;
  mpisim::EngineConfig config;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  mpisim::Engine engine(app, mpisim::Placement::identity(2), config);
  engine.set_policy(&hook);
  engine.add_observer(&recorder);
  (void)engine.run();
  ASSERT_FALSE(recorder.priority_times.empty());
  ASSERT_FALSE(recorder.placement_times.empty());
  for (const SimTime t : recorder.priority_times) EXPECT_GT(t, 0.0);
  for (const SimTime t : recorder.placement_times) EXPECT_GT(t, 0.0);
}

// --- placement boundaries --------------------------------------------------

TEST(ClusterPlacement, RejectsSlotAliasing) {
  // Slot 2 on a 2-way core folds onto the next core's slot 0 through
  // linear(); validate must reject the alias instead of double-booking.
  mpisim::Placement within;
  within.cpu_of_rank = {CpuId{CoreId{0}, ThreadSlot{0}},
                        CpuId{CoreId{0}, ThreadSlot{2}}};
  const ClusterPlacement aliased =
      ClusterPlacement::explicit_map({0, 0}, within);
  EXPECT_THROW(aliased.within.validate(aliased.node_of_rank, {4}, {2}),
               InvalidArgument);
}

TEST(ClusterPlacement, AcceptsHoleContainingPlacements) {
  // Free seats between occupied ones are legal — migration targets
  // depend on it.
  const ClusterPlacement holes = ClusterPlacement::explicit_map(
      {0, 0, 1}, mpisim::Placement::from_linear({0, 3, 1}));
  holes.within.validate(holes.node_of_rank, {4, 4}, {2, 2});
}

// --- repartition policy config + scenario spec -----------------------------

TEST(RepartitionConfig, ValidatesRanges) {
  policy::RepartitionConfig config;
  config.validate();  // defaults are sane
  config.threshold = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.hysteresis = config.threshold + 0.1;  // would never re-arm
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.interval = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.smoothing = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(ScenarioSpecMigrate, RoundTripsAndStaysOffTheWireWhenFalse) {
  simcheck::ScenarioSpec spec = simcheck::random_spec(42);
  spec.num_nodes = 2;
  spec.migrate = true;
  spec = simcheck::sanitize_spec(spec);
  const std::string text = simcheck::to_string(spec);
  EXPECT_NE(text.find(" migrate=1"), std::string::npos);
  const simcheck::ScenarioSpec parsed = simcheck::parse_spec_string(text);
  EXPECT_EQ(simcheck::to_string(parsed), text);

  // migrate=false specs serialise exactly as before the flag existed.
  spec.migrate = false;
  EXPECT_EQ(simcheck::to_string(spec).find("migrate"), std::string::npos);

  // Single-node specs cannot migrate; sanitize clears the flag.
  simcheck::ScenarioSpec single = simcheck::random_spec(43);
  single.num_nodes = 1;
  single.migrate = true;
  EXPECT_FALSE(simcheck::sanitize_spec(single).migrate);
}

}  // namespace
}  // namespace smtbal::cluster
