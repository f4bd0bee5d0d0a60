#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"
#include "cluster/interconnect.hpp"
#include "cluster/placement.hpp"
#include "cluster/workload.hpp"
#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "mpisim/engine.hpp"
#include "policy/dynamic.hpp"
#include "policy/two_level.hpp"
#include "runner/batch.hpp"
#include "runner/report.hpp"
#include "trace/paraver.hpp"
#include "workloads/metbench.hpp"

namespace smtbal::cluster {
namespace {

// --- placement -------------------------------------------------------------

// Checks `p` against `nodes` identical nodes of `contexts` contexts with
// `tpc` SMT slots per core.
void validate_uniform(const ClusterPlacement& p, std::uint32_t nodes,
                      std::uint32_t contexts, std::uint32_t tpc) {
  p.within.validate(p.node_of_rank,
                    std::vector<std::uint32_t>(nodes, contexts),
                    std::vector<std::uint32_t>(nodes, tpc));
}

TEST(ClusterPlacement, BlockFillsNodesConsecutively) {
  const ClusterPlacement p = ClusterPlacement::block(8, 2);
  EXPECT_EQ(p.node_of_rank,
            (std::vector<std::uint32_t>{0, 0, 0, 0, 1, 1, 1, 1}));
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(p.within.cpu_of_rank[r].linear(2), r % 4) << "rank " << r;
  }
  validate_uniform(p, 2, 4, 2);
}

TEST(ClusterPlacement, BlockHandlesUnevenRankCounts) {
  // 5 ranks over 2 nodes: ceil(5/2) = 3 per node, the last node is short.
  const ClusterPlacement p = ClusterPlacement::block(5, 2);
  EXPECT_EQ(p.node_of_rank, (std::vector<std::uint32_t>{0, 0, 0, 1, 1}));
  const std::vector<std::uint32_t> locals = {0, 1, 2, 0, 1};
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_EQ(p.within.cpu_of_rank[r].linear(2), locals[r]) << "rank " << r;
  }
  validate_uniform(p, 2, 4, 2);
}

TEST(ClusterPlacement, CyclicRoundRobinsAcrossNodes) {
  const ClusterPlacement p = ClusterPlacement::cyclic(6, 2);
  EXPECT_EQ(p.node_of_rank, (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}));
  const std::vector<std::uint32_t> locals = {0, 0, 1, 1, 2, 2};
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(p.within.cpu_of_rank[r].linear(2), locals[r]) << "rank " << r;
  }
  validate_uniform(p, 2, 4, 2);
}

TEST(ClusterPlacement, ValidateRejectsBadShapes) {
  // The two maps must agree in length.
  ClusterPlacement mismatched = ClusterPlacement::block(4, 2);
  mismatched.node_of_rank.pop_back();
  EXPECT_THROW(validate_uniform(mismatched, 2, 4, 2), InvalidArgument);

  // Node index out of range.
  ClusterPlacement bad_node = ClusterPlacement::block(4, 2);
  bad_node.node_of_rank[3] = 7;
  EXPECT_THROW(validate_uniform(bad_node, 2, 4, 2), InvalidArgument);

  // Within-node CPU beyond the node's chip.
  const ClusterPlacement big_cpu = ClusterPlacement::explicit_map(
      {0, 0}, mpisim::Placement::from_linear({0, 5}));
  EXPECT_THROW(validate_uniform(big_cpu, 1, 4, 2), InvalidArgument);

  // Two ranks on one (node, CPU) seat.
  const ClusterPlacement collision = ClusterPlacement::explicit_map(
      {0, 0}, mpisim::Placement::from_linear({1, 1}));
  EXPECT_THROW(validate_uniform(collision, 1, 4, 2), InvalidArgument);

  // The same CPU on *different* nodes is fine.
  const ClusterPlacement distinct = ClusterPlacement::explicit_map(
      {0, 1}, mpisim::Placement::from_linear({1, 1}));
  validate_uniform(distinct, 2, 4, 2);
}

// --- interconnect ----------------------------------------------------------

TEST(Interconnect, ConfigRejectsDegenerateLinks) {
  InterconnectConfig bad = {};
  bad.link_bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad.link_bandwidth_bytes_per_s = -1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = {};
  bad.link_latency = -1e-6;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad.link_latency = std::numeric_limits<double>::infinity();
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(Interconnect, TransferRejectsBadRoutes) {
  Interconnect net({}, 2);
  EXPECT_THROW(net.transfer(0.0, 0, 0, 64), InvalidArgument);
  EXPECT_THROW(net.transfer(0.0, 0, 2, 64), InvalidArgument);
}

TEST(Interconnect, UncontendedCostMatchesTopologyHops) {
  InterconnectConfig config;
  config.link_latency = 1e-5;
  config.link_bandwidth_bytes_per_s = 1e9;
  const Interconnect mesh(config, 2);
  // 1e6 bytes at 1 GB/s = 1 ms serialisation per hop.
  EXPECT_DOUBLE_EQ(mesh.uncontended_cost(1'000'000), 1e-3 + 1e-5);
  EXPECT_DOUBLE_EQ(mesh.uncontended_cost(0), 1e-5);

  config.topology = Topology::kStar;
  const Interconnect star(config, 2);
  EXPECT_DOUBLE_EQ(star.uncontended_cost(1'000'000), 2 * (1e-3 + 1e-5));
}

TEST(Interconnect, FirstTransferOnIdleLinkIsUncontended) {
  for (const Topology topology : {Topology::kFullMesh, Topology::kStar}) {
    InterconnectConfig config;
    config.topology = topology;
    Interconnect net(config, 3);
    EXPECT_DOUBLE_EQ(net.transfer(1.0, 0, 1, 4096),
                     1.0 + net.uncontended_cost(4096))
        << "topology " << static_cast<int>(topology);
  }
}

TEST(Interconnect, BackToBackTransfersQueueMonotonically) {
  for (const Topology topology : {Topology::kFullMesh, Topology::kStar}) {
    InterconnectConfig config;
    config.topology = topology;
    Interconnect net(config, 2);
    // Same injection time, same link: each transfer queues behind the
    // previous serialisation, so arrivals strictly increase.
    SimTime prev = 0.0;
    for (int i = 0; i < 4; ++i) {
      const SimTime arrival = net.transfer(0.0, 0, 1, 1 << 20);
      EXPECT_GT(arrival, prev)
          << "topology " << static_cast<int>(topology) << " transfer " << i;
      prev = arrival;
    }
  }
}

TEST(Interconnect, MeshLinksAreIndependentPairs) {
  Interconnect net({}, 3);
  const SimTime first = net.transfer(0.0, 0, 1, 1 << 20);
  // Different ordered pairs (reverse direction, different destination)
  // do not contend with the 0->1 traffic.
  EXPECT_DOUBLE_EQ(net.transfer(0.0, 1, 0, 1 << 20), first);
  EXPECT_DOUBLE_EQ(net.transfer(0.0, 0, 2, 1 << 20), first);
  EXPECT_DOUBLE_EQ(net.transfer(0.0, 2, 1, 1 << 20), first);
  // The same pair again does contend.
  EXPECT_GT(net.transfer(0.0, 0, 1, 1 << 20), first);
}

TEST(Interconnect, StarSharesUplinkAndDownlink) {
  InterconnectConfig config;
  config.topology = Topology::kStar;

  // Fan-out: one source to two destinations serialises on the uplink.
  Interconnect fan_out(config, 3);
  const SimTime alone = fan_out.transfer(0.0, 0, 1, 1 << 20);
  EXPECT_GT(fan_out.transfer(0.0, 0, 2, 1 << 20), alone);

  // Fan-in: two sources to one destination serialise on the downlink.
  Interconnect fan_in(config, 3);
  const SimTime first = fan_in.transfer(0.0, 0, 2, 1 << 20);
  EXPECT_GT(fan_in.transfer(0.0, 1, 2, 1 << 20), first);
}

TEST(Interconnect, ZeroByteTransferCostsOnlyLatency) {
  InterconnectConfig config;
  config.link_latency = 3e-6;
  Interconnect net(config, 2);
  EXPECT_DOUBLE_EQ(net.transfer(2.0, 0, 1, 0), 2.0 + 3e-6);
}

// --- engine ----------------------------------------------------------------

ClusterRunResult run_skewed(std::uint32_t num_nodes,
                            policy::TwoLevelBalancer* policy = nullptr,
                            bool cyclic = false) {
  SkewedClusterConfig workload;
  workload.num_nodes = num_nodes;
  workload.ranks_per_node = 4;
  workload.iterations = 3;
  workload.base_instructions = 4e8;
  SkewedCluster skew = make_skewed_cluster(workload);
  if (cyclic) {
    skew.placement =
        ClusterPlacement::cyclic(skew.app.size(), num_nodes);
  }
  ClusterConfig config;
  config.num_nodes = num_nodes;
  ClusterEngine engine(std::move(skew.app), skew.placement, config);
  if (policy != nullptr) engine.set_policy(policy);
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

TEST(ClusterEngine, CrossNodeRunsAreDeterministic) {
  // The event order across nodes is fixed by (time, seq), so two fresh
  // engines on the same workload reproduce each other exactly — cyclic
  // placement makes every barrier a cross-node rendezvous.
  ClusterRunResult a = run_skewed(2, nullptr, /*cyclic=*/true);
  ClusterRunResult b = run_skewed(2, nullptr, /*cyclic=*/true);
  EXPECT_EQ(a.flat.exec_time, b.flat.exec_time);
  EXPECT_EQ(a.flat.events, b.flat.events);
  expect_same_trace(a.flat.trace, b.flat.trace);
}

TEST(ClusterEngine, NodeStatsPartitionTheRankMetrics) {
  const ClusterRunResult result = run_skewed(2);
  ASSERT_EQ(result.nodes.size(), 2u);
  EXPECT_EQ(result.nodes[0].ranks, 4u);
  EXPECT_EQ(result.nodes[1].ranks, 4u);
  double wait = 0.0;
  for (const NodeStats& node : result.nodes) wait += node.wait;
  double rank_wait = 0.0;
  for (const auto& rank : result.flat.metrics.ranks) rank_wait += rank.wait;
  EXPECT_DOUBLE_EQ(wait, rank_wait);
  // Node 0 carries the 1.6x load, so its ranks wait less than node 1's
  // (everyone else waits for them at the barrier).
  EXPECT_LT(result.nodes[0].wait, result.nodes[1].wait);
}

TEST(ClusterEngine, TwoLevelBoostGoesToTheLaggingNode) {
  SkewedClusterConfig workload;
  workload.num_nodes = 2;
  workload.ranks_per_node = 4;
  workload.iterations = 6;
  workload.base_instructions = 4e8;
  workload.light_fraction = 0.1;
  SkewedCluster skew = make_skewed_cluster(workload);
  policy::TwoLevelBalancerConfig config;
  config.max_node_boost = 1;
  policy::TwoLevelBalancer policy(config);
  ClusterConfig cluster_config;
  cluster_config.num_nodes = 2;
  ClusterEngine engine(std::move(skew.app), skew.placement, cluster_config);
  engine.set_policy(&policy);
  const ClusterRunResult result = engine.run();
  EXPECT_GT(result.flat.exec_time, 0.0);
  EXPECT_EQ(policy.node_boost(0), 1);  // node 0 lags (1.6x load)
  EXPECT_EQ(policy.node_boost(1), 0);
}

TEST(TwoLevelBalancer, ConfigRejectsUnboundedGaps) {
  policy::TwoLevelBalancerConfig config;
  config.inner.high_priority = 6;
  config.inner.max_diff = 4;
  config.max_node_boost = 2;  // 4 + 2 leaves no valid low priority
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.max_node_boost = 1;
  config.validate();
}

// --- M=1 equivalence with the flat engine ----------------------------------

workloads::MetBenchConfig small_metbench() {
  workloads::MetBenchConfig config;
  config.num_ranks = 4;
  config.iterations = 3;
  config.heavy_instructions = 6e8;
  config.stat_duration = 0.01;
  return config;
}

TEST(ClusterEngine, SingleNodeMatchesFlatEngineExactly) {
  const auto app = workloads::build_metbench(small_metbench());

  mpisim::Engine flat(app, mpisim::Placement::identity(app.size()));
  const mpisim::RunResult flat_result = flat.run();

  ClusterEngine one_node(app, ClusterPlacement::block(app.size(), 1),
                         ClusterConfig{});
  ClusterRunResult cluster_result = one_node.run();

  // Bit-for-bit: the flat engine *is* a one-node cluster, so every float
  // must come out identical, not merely close.
  EXPECT_EQ(flat_result.exec_time, cluster_result.flat.exec_time);
  EXPECT_EQ(flat_result.imbalance, cluster_result.flat.imbalance);
  EXPECT_EQ(flat_result.events, cluster_result.flat.events);
  EXPECT_EQ(flat_result.priority_resets, cluster_result.flat.priority_resets);
  expect_same_trace(flat_result.trace, cluster_result.flat.trace);
  ASSERT_EQ(flat_result.metrics.ranks.size(),
            cluster_result.flat.metrics.ranks.size());
  for (std::size_t r = 0; r < flat_result.metrics.ranks.size(); ++r) {
    const auto& fm = flat_result.metrics.ranks[r];
    const auto& cm = cluster_result.flat.metrics.ranks[r];
    EXPECT_EQ(fm.compute, cm.compute) << "rank " << r;
    EXPECT_EQ(fm.wait, cm.wait) << "rank " << r;
    EXPECT_EQ(fm.spin, cm.spin) << "rank " << r;
    EXPECT_EQ(fm.preempted, cm.preempted) << "rank " << r;
  }
  EXPECT_EQ(cluster_result.nodes.size(), 1u);
  EXPECT_EQ(cluster_result.nodes[0].ranks, app.size());
}

TEST(ClusterEngine, SingleNodeMatchesFlatEngineUnderBalancing) {
  const auto app = workloads::build_metbench(small_metbench());

  policy::DynamicBalancer flat_policy;
  mpisim::Engine flat(app, mpisim::Placement::identity(app.size()));
  flat.set_policy(&flat_policy);
  const mpisim::RunResult flat_result = flat.run();

  // With one node the outer level never acts (and max_node_boost = 0
  // disables it outright), so two-level degenerates to the same inner
  // controller seeing the same reports.
  const ClusterPlacement placement = ClusterPlacement::block(app.size(), 1);
  policy::TwoLevelBalancerConfig policy_config;
  policy_config.max_node_boost = 0;
  policy::TwoLevelBalancer policy(policy_config);
  ClusterEngine one_node(app, placement, ClusterConfig{});
  one_node.set_policy(&policy);
  const ClusterRunResult cluster_result = one_node.run();

  EXPECT_EQ(flat_result.exec_time, cluster_result.flat.exec_time);
  EXPECT_EQ(flat_result.events, cluster_result.flat.events);
  EXPECT_EQ(flat_result.priority_resets, cluster_result.flat.priority_resets);
  expect_same_trace(flat_result.trace, cluster_result.flat.trace);
}

TEST(ClusterEngine, SingleNodeSerialisesIdenticallyToFlat) {
  const auto app = workloads::build_metbench(small_metbench());

  mpisim::Engine flat(app, mpisim::Placement::identity(app.size()));
  ClusterEngine one_node(app, ClusterPlacement::block(app.size(), 1),
                         ClusterConfig{});

  runner::RunOutcome flat_outcome;
  flat_outcome.label = "case";
  flat_outcome.ok = true;
  flat_outcome.result = flat.run();

  ClusterRunResult cluster_result = one_node.run();
  runner::RunOutcome cluster_outcome;
  cluster_outcome.label = "case";
  cluster_outcome.ok = true;
  cluster_outcome.result = std::move(cluster_result.flat);

  // Same flat JSONL record (smtbal.bench.run/2) and the same .prv bytes.
  EXPECT_EQ(runner::to_json_record(flat_outcome),
            runner::to_json_record(cluster_outcome));
  EXPECT_EQ(trace::to_prv(flat_outcome.result->trace),
            trace::to_prv(cluster_outcome.result->trace));

  // The cluster serialisation (run/3) is a strict annotation on top.
  const std::string annotated = runner::to_json_record(
      cluster_outcome, cluster_result.node_of_rank);
  EXPECT_NE(annotated.find("\"schema\":\"smtbal.bench.run/3\""),
            std::string::npos);
  EXPECT_NE(annotated.find("\"node\":0"), std::string::npos);
  EXPECT_NE(annotated.find("\"nodes\":["), std::string::npos);
}

TEST(ClusterEngine, BothEnginesRejectBadSeatsAtConstruction) {
  // The flat engine and a one-node cluster share one placement check, so
  // each bad seat fails before run(): a duplicate seat, a slot alias
  // (core 0 slot 2 would fold onto core 1 slot 0 at 2-way SMT), and a CPU
  // beyond the default 2-core chip.
  mpisim::Application app;
  app.ranks.resize(2);
  const isa::KernelId hpc =
      isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;
  for (mpisim::RankProgram& rank : app.ranks) rank.compute(hpc, 1e6);
  const std::vector<mpisim::Placement> bad = {
      mpisim::Placement::from_linear({1, 1}),
      mpisim::Placement{{CpuId{CoreId{0}, ThreadSlot{0}},
                         CpuId{CoreId{0}, ThreadSlot{2}}}},
      mpisim::Placement::from_linear({0, 4})};
  for (const mpisim::Placement& placement : bad) {
    EXPECT_THROW(mpisim::Engine flat(app, placement), InvalidArgument);
    EXPECT_THROW(ClusterEngine one_node(
                     app, ClusterPlacement::explicit_map({0, 0}, placement)),
                 InvalidArgument);
  }
}

TEST(ClusterParaver, MultiNodeHeaderPlacesRanksOnTheirNodes) {
  trace::Tracer tracer(4);
  tracer.record(RankId{0}, 0.0, 1.0, trace::RankState::kCompute);
  tracer.record(RankId{1}, 0.0, 1.0, trace::RankState::kCompute);
  tracer.record(RankId{2}, 0.0, 1.0, trace::RankState::kSync);
  tracer.record(RankId{3}, 0.0, 1.0, trace::RankState::kCompute);
  tracer.finish(1.0);
  const std::string prv = trace::to_prv(tracer, {0, 0, 1, 1});
  EXPECT_NE(prv.find(":2(2,2):1:4(1:1,1:1,1:2,1:2)"), std::string::npos)
      << prv;
  // Rank 2 is node 1's first CPU: global CPU id 3 (after node 0's two).
  EXPECT_NE(prv.find("1:3:1:3:1:0:1000000:3"), std::string::npos) << prv;
}

}  // namespace
}  // namespace smtbal::cluster
