// Heterogeneous-cluster coverage: per-node shape overrides, the
// capacity-aware block placement, per-node control accessors, policies
// actuating across mixed SMT widths, and the all-equal reduction — a
// ClusterConfig whose overrides all equal the base shape must reproduce
// the no-override run bit-for-bit.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"
#include "cluster/placement.hpp"
#include "cluster/workload.hpp"
#include "common/error.hpp"
#include "policy/registry.hpp"
#include "runner/batch.hpp"
#include "workloads/drift.hpp"
#include "workloads/stencil.hpp"

namespace smtbal::cluster {
namespace {

ClusterRunResult run_skewed_with(ClusterConfig config) {
  SkewedClusterConfig workload;
  workload.num_nodes = config.num_nodes;
  workload.ranks_per_node = 4;
  workload.iterations = 3;
  workload.base_instructions = 4e8;
  SkewedCluster skew = make_skewed_cluster(workload);
  ClusterEngine engine(std::move(skew.app), skew.placement, config);
  return engine.run();
}

void expect_same_trace(const trace::Tracer& a, const trace::Tracer& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  EXPECT_EQ(a.end_time(), b.end_time());
  for (std::size_t r = 0; r < a.num_ranks(); ++r) {
    const RankId rank{static_cast<std::uint32_t>(r)};
    const auto& ta = a.timeline(rank);
    const auto& tb = b.timeline(rank);
    ASSERT_EQ(ta.size(), tb.size()) << "rank " << r;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].begin, tb[i].begin) << "rank " << r << " interval " << i;
      EXPECT_EQ(ta[i].end, tb[i].end) << "rank " << r << " interval " << i;
      EXPECT_EQ(ta[i].state, tb[i].state) << "rank " << r << " interval " << i;
    }
  }
}

/// A 2-node cluster whose second node is an SMT4 chip, with the stencil
/// seated by capacity: node 0 hosts 4 ranks, node 1 hosts 6.
struct MixedWidth {
  mpisim::Application app;
  ClusterPlacement placement;
  ClusterConfig config;
};

MixedWidth make_mixed_width() {
  MixedWidth mixed;
  mixed.config.num_nodes = 2;
  mixed.config.node_shapes = {{}, {.threads_per_core = 4}};
  std::vector<std::uint32_t> contexts, tpc;
  for (std::uint32_t n = 0; n < 2; ++n) {
    const smt::ChipConfig chip = mixed.config.node_chip(n);
    contexts.push_back(chip.num_contexts());
    tpc.push_back(chip.threads_per_core());
  }
  workloads::StencilConfig stencil;
  stencil.num_ranks = 10;
  stencil.iterations = 3;
  stencil.base_instructions = 2e8;
  mixed.app = workloads::build_stencil(stencil);
  mixed.placement =
      ClusterPlacement::block_by_capacity(10, contexts, tpc);
  return mixed;
}

// --- config ----------------------------------------------------------------

TEST(ClusterHetero, ShapeOfInheritsAndOverrides) {
  ClusterConfig config;
  config.num_nodes = 3;
  config.node_shapes = {{}, {.num_cores = 4, .threads_per_core = 4}};
  EXPECT_TRUE(config.shape_of(0).is_default());
  EXPECT_FALSE(config.shape_of(1).is_default());
  // Shorter override vectors extend with defaults.
  EXPECT_TRUE(config.shape_of(2).is_default());

  const smt::ChipConfig base = config.node_chip(0);
  EXPECT_EQ(base.num_cores, config.node.chip.num_cores);
  EXPECT_EQ(base.threads_per_core(), config.node.chip.threads_per_core());
  const smt::ChipConfig wide = config.node_chip(1);
  EXPECT_EQ(wide.num_cores, 4u);
  EXPECT_EQ(wide.memory.num_cores, 4u);  // per-core L1Ds follow the cores
  EXPECT_EQ(wide.threads_per_core(), 4u);
}

TEST(ClusterHetero, ClockScaleMultipliesTheNodeFrequency) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.node_shapes = {{}, {.clock_scale = 0.5}};
  EXPECT_DOUBLE_EQ(config.node_chip(1).frequency_ghz,
                   config.node.chip.frequency_ghz * 0.5);
}

TEST(ClusterHetero, ValidateRejectsBadShapes) {
  // More overrides than nodes.
  ClusterConfig oversized;
  oversized.num_nodes = 2;
  oversized.node_shapes = {{}, {}, {}};
  EXPECT_THROW(oversized.validate(), InvalidArgument);

  // Degenerate clock scales.
  for (const double scale : {0.0, -1.0, 1e308 * 10}) {
    ClusterConfig clocked;
    clocked.num_nodes = 2;
    clocked.node_shapes = {{}, {.clock_scale = scale}};
    EXPECT_THROW(clocked.validate(), InvalidArgument) << "scale " << scale;
  }

  // An override deriving an invalid node config (SMT width beyond the
  // core model's 64-way ceiling).
  ClusterConfig too_wide;
  too_wide.num_nodes = 2;
  too_wide.node_shapes = {{}, {.threads_per_core = 65}};
  EXPECT_THROW(too_wide.validate(), InvalidArgument);
}

// --- all-equal reduction ----------------------------------------------------

TEST(ClusterHetero, AllEqualOverridesAreByteIdenticalToNoOverrides) {
  ClusterConfig plain;
  plain.num_nodes = 2;

  // Explicit overrides that spell out exactly the base shape: a different
  // ClusterConfig value, but the same cluster.
  ClusterConfig spelled;
  spelled.num_nodes = 2;
  spelled.node_shapes = {
      {.num_cores = spelled.node.chip.num_cores,
       .threads_per_core = spelled.node.chip.threads_per_core(),
       .clock_scale = 1.0},
      {}};
  // Not *syntactically* uniform.
  EXPECT_FALSE(spelled.node_shapes[0].is_default());

  const ClusterRunResult a = run_skewed_with(plain);
  const ClusterRunResult b = run_skewed_with(spelled);
  EXPECT_EQ(a.flat.exec_time, b.flat.exec_time);
  EXPECT_EQ(a.flat.events, b.flat.events);
  expect_same_trace(a.flat.trace, b.flat.trace);
}

// --- capacity placement -----------------------------------------------------

TEST(ClusterHetero, BlockByCapacityFillsEachNodeToItsOwnWidth) {
  const ClusterPlacement p = ClusterPlacement::block_by_capacity(
      10, /*contexts_of_node=*/{4, 8}, /*tpc_of_node=*/{2, 4});
  EXPECT_EQ(p.node_of_rank,
            (std::vector<std::uint32_t>{0, 0, 0, 0, 1, 1, 1, 1, 1, 1}));
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(p.within.cpu_of_rank[r].linear(2), r) << "rank " << r;
  }
  for (std::size_t r = 4; r < 10; ++r) {
    EXPECT_EQ(p.within.cpu_of_rank[r].linear(4), r - 4) << "rank " << r;
  }
  p.within.validate(p.node_of_rank, {4, 8}, {2, 4});

  EXPECT_THROW(ClusterPlacement::block_by_capacity(13, {4, 8}, {2, 4}),
               InvalidArgument);
}

TEST(ClusterHetero, HeteroValidateChecksEachNodesOwnShape) {
  // Seat (core 1, slot 2) exists on the SMT4 node but not on the SMT2
  // node: the same placement must pass on one and fail on the other.
  const ClusterPlacement p = ClusterPlacement::explicit_map(
      {0}, mpisim::Placement::from_linear({6}, 4));
  p.within.validate(p.node_of_rank, {8, 8}, {4, 4});
  EXPECT_THROW(p.within.validate(p.node_of_rank, {4, 8}, {2, 4}),
               InvalidArgument);
}

// --- engine ----------------------------------------------------------------

TEST(ClusterHetero, MixedWidthClusterRunsAndReportsPerNodeShapes) {
  MixedWidth mixed = make_mixed_width();
  ClusterEngine engine(std::move(mixed.app), mixed.placement, mixed.config);
  EXPECT_EQ(engine.threads_per_core_of(0), 2u);
  EXPECT_EQ(engine.threads_per_core_of(1), 4u);
  EXPECT_EQ(engine.num_cores_of(0), 2u);
  EXPECT_EQ(engine.num_cores_of(1), 2u);
  EXPECT_EQ(engine.node_chip(1).threads_per_core(), 4u);
  EXPECT_THROW((void)engine.threads_per_core_of(2), InvalidArgument);
  EXPECT_THROW((void)engine.num_cores_of(2), InvalidArgument);

  const ClusterRunResult result = engine.run();
  EXPECT_GT(result.flat.exec_time, 0.0);
  ASSERT_EQ(result.nodes.size(), 2u);
  EXPECT_EQ(result.nodes[0].ranks, 4u);
  EXPECT_EQ(result.nodes[1].ranks, 6u);
}

TEST(ClusterHetero, MixedWidthRunsAreDeterministic) {
  MixedWidth first = make_mixed_width();
  ClusterEngine a(std::move(first.app), first.placement, first.config);
  MixedWidth second = make_mixed_width();
  ClusterEngine b(std::move(second.app), second.placement, second.config);
  const ClusterRunResult ra = a.run();
  const ClusterRunResult rb = b.run();
  EXPECT_EQ(ra.flat.exec_time, rb.flat.exec_time);
  EXPECT_EQ(ra.flat.events, rb.flat.events);
  expect_same_trace(ra.flat.trace, rb.flat.trace);
}

TEST(ClusterHetero, BatchSamplerTotalsCountShapeSamplers) {
  // The SMT4 node measures on a per-shape sampler the engine builds for
  // itself. At one worker every measured load is one shared-cache insert,
  // so the batch's sampler misses must equal the inserts: a total over
  // the worker's own samplers alone misses the SMT4 node's measurements.
  MixedWidth mixed = make_mixed_width();
  mixed.config.node.sampler = {.warmup_cycles = 2000,
                               .window_cycles = 8000,
                               .seed = 1};
  runner::RunSpec spec;
  spec.label = "mixed-width";
  spec.app = std::move(mixed.app);
  spec.cluster_placement = mixed.placement;
  spec.cluster_config = mixed.config;
  const runner::BatchResult batch =
      runner::BatchRunner(runner::BatchOptions{.jobs = 1}).run({spec});
  ASSERT_EQ(batch.failures, 0u);
  EXPECT_GT(batch.cache_stats.inserts, 0u);
  EXPECT_EQ(batch.sampler_stats.misses, batch.cache_stats.inserts);
}

TEST(ClusterHetero, SlowerClockExtendsTheRun) {
  workloads::DriftConfig drift;
  drift.num_ranks = 8;
  drift.iterations = 4;
  drift.base_instructions = 2e8;
  const ClusterPlacement placement = ClusterPlacement::block(8, 2);

  ClusterConfig base;
  base.num_nodes = 2;
  ClusterEngine fast(workloads::build_drift(drift), placement, base);

  ClusterConfig derated = base;
  derated.node_shapes = {{}, {.clock_scale = 0.5}};
  ClusterEngine slow(workloads::build_drift(drift), placement, derated);

  // Every iteration barriers, so halving node 1's clock stretches the
  // whole cluster, not just its own ranks.
  EXPECT_GT(slow.run().flat.exec_time, fast.run().flat.exec_time);
}

// --- policies over mixed widths ---------------------------------------------

TEST(ClusterHetero, SeatRankingPoliciesActuateOnMixedWidths) {
  // Regression for the seat-aliasing bug: linearising an SMT4 node's
  // seats with the base SMT2 width made (core 0, slot 2) collide with
  // (core 1, slot 0), so allocation/ilp-pairing threw mid-run.
  for (const std::string spec : {"allocation", "ilp-pairing", "two-level"}) {
    MixedWidth mixed = make_mixed_width();
    policy::PolicyContext context;
    context.num_ranks = mixed.app.size();
    const auto policy = policy::Registry::instance().make(spec, context);
    ClusterEngine engine(std::move(mixed.app), mixed.placement, mixed.config);
    engine.set_policy(policy.get());
    const ClusterRunResult result = engine.run();
    EXPECT_GT(result.flat.exec_time, 0.0) << spec;
  }
}

}  // namespace
}  // namespace smtbal::cluster
