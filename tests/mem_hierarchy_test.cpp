#include "mem/hierarchy.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace smtbal::mem {
namespace {

HierarchyConfig tiny_hierarchy() {
  HierarchyConfig cfg;
  cfg.num_cores = 2;
  cfg.l1d = {.name = "L1D", .size_bytes = 1024, .line_bytes = 64,
             .associativity = 2, .hit_latency = 2};
  cfg.l2 = {.name = "L2", .size_bytes = 8192, .line_bytes = 64,
            .associativity = 4, .hit_latency = 13};
  cfg.l3 = {.name = "L3", .size_bytes = 65536, .line_bytes = 64,
            .associativity = 8, .hit_latency = 87};
  cfg.memory_latency = 230;
  return cfg;
}

TEST(HierarchyConfig, DefaultValidates) {
  EXPECT_NO_THROW(HierarchyConfig{}.validate());
}

TEST(HierarchyConfig, RejectsMismatchedLineSizes) {
  HierarchyConfig cfg = tiny_hierarchy();
  cfg.l2.line_bytes = 128;
  cfg.l2.size_bytes = 8192;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(HierarchyConfig, RejectsZeroCores) {
  HierarchyConfig cfg = tiny_hierarchy();
  cfg.num_cores = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(HierarchyConfig, CapsTheWorstCaseMissLatency) {
  HierarchyConfig cfg;
  cfg.memory_latency = static_cast<std::uint32_t>(
      HierarchyConfig::kMaxMissLatency -
      (cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency));
  EXPECT_EQ(cfg.miss_latency(), HierarchyConfig::kMaxMissLatency);
  EXPECT_NO_THROW(cfg.validate());
  ++cfg.memory_latency;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  // A sum that would wrap a uint32 is rejected, not wrapped.
  cfg.memory_latency = 0xFFFFFFFFu;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  EXPECT_THROW(Hierarchy{cfg}, InvalidArgument);
}

TEST(Hierarchy, ColdAccessGoesToMemory) {
  Hierarchy h(tiny_hierarchy());
  const AccessResult r = h.access(0, 0x10000, false);
  EXPECT_EQ(r.level, 4);
  EXPECT_EQ(r.latency, 2u + 13u + 87u + 230u);
  EXPECT_EQ(h.memory_accesses(), 1u);
}

TEST(Hierarchy, SecondAccessHitsL1) {
  Hierarchy h(tiny_hierarchy());
  h.access(0, 0x10000, false);
  const AccessResult r = h.access(0, 0x10000, false);
  EXPECT_EQ(r.level, 1);
  EXPECT_EQ(r.latency, 2u);
}

TEST(Hierarchy, L1EvictionFallsBackToL2) {
  Hierarchy h(tiny_hierarchy());
  // L1 is 1 KiB (16 lines); walk 32 lines to evict the first, then
  // re-access it: L1 misses but L2 (8 KiB) still holds it.
  h.access(0, 0, false);
  for (std::uint64_t addr = 64; addr < 64 * 32; addr += 64) {
    h.access(0, addr, false);
  }
  const AccessResult r = h.access(0, 0, false);
  EXPECT_EQ(r.level, 2);
  EXPECT_EQ(r.latency, 2u + 13u);
}

TEST(Hierarchy, PrivateL1PerCore) {
  Hierarchy h(tiny_hierarchy());
  h.access(0, 0x2000, false);  // core 0 warms its L1 + shared L2
  const AccessResult r = h.access(1, 0x2000, false);
  // Core 1 misses its own L1 but hits the shared L2.
  EXPECT_EQ(r.level, 2);
  EXPECT_EQ(h.l1d(1).stats().misses, 1u);
  EXPECT_EQ(h.l1d(0).stats().misses, 1u);
}

TEST(Hierarchy, SharedL2VisibleFromBothCores) {
  Hierarchy h(tiny_hierarchy());
  h.access(0, 0x3000, false);
  EXPECT_TRUE(h.l2().probe(0x3000));
  h.access(1, 0x3000, false);
  EXPECT_EQ(h.l2().stats().hits, 1u);
}

TEST(Hierarchy, RejectsBadCoreIndex) {
  Hierarchy h(tiny_hierarchy());
  EXPECT_THROW(h.access(2, 0, false), InvalidArgument);
  EXPECT_THROW((void)h.l1d(2), InvalidArgument);
}

TEST(Hierarchy, ResetClearsEverything) {
  Hierarchy h(tiny_hierarchy());
  h.access(0, 0x4000, false);
  h.reset();
  EXPECT_EQ(h.memory_accesses(), 0u);
  EXPECT_EQ(h.l1d(0).stats().accesses(), 0u);
  EXPECT_FALSE(h.l2().probe(0x4000));
  const AccessResult r = h.access(0, 0x4000, false);
  EXPECT_EQ(r.level, 4);
}

TEST(Hierarchy, LatencyAccumulatesThroughLevels) {
  Hierarchy h(tiny_hierarchy());
  // Warm L3 only: walk a set larger than L2 but within L3.
  for (std::uint64_t addr = 0; addr < 16384; addr += 64) h.access(0, addr, false);
  // The first lines were evicted from L1 and L2 but live in L3 (64 KiB).
  const AccessResult r = h.access(0, 0, false);
  EXPECT_EQ(r.level, 3);
  EXPECT_EQ(r.latency, 2u + 13u + 87u);
}

TEST(Hierarchy, WritesPropagateDirtyState) {
  Hierarchy h(tiny_hierarchy());
  h.access(0, 0x5000, true);
  // Evict from L1 by walking; the dirty line should count in L1 stats.
  for (std::uint64_t addr = 0x6000; addr < 0x6000 + 64 * 32; addr += 64) {
    h.access(0, addr, false);
  }
  EXPECT_GE(h.l1d(0).stats().dirty_evictions, 1u);
}

// --- no-interference certificate ---------------------------------------------

constexpr std::uint64_t kMiB = 1024 * 1024;

/// `contexts` 16 KiB footprints at 1 MiB-aligned bases, two per core. On
/// the default hierarchy every such stream lands on L2 sets 0-127.
std::vector<CoreFootprint> stacked_16k(std::uint32_t contexts) {
  std::vector<CoreFootprint> footprints;
  for (std::uint32_t i = 0; i < contexts; ++i) {
    footprints.push_back({i / 2, (i + 1) * kMiB, 16 * 1024});
  }
  return footprints;
}

TEST(CoresIndependent, EmptyAndSingleCoreLoadsPass) {
  const HierarchyConfig cfg;
  EXPECT_TRUE(cores_independent(cfg, {}));
  // One core may stream through everything: nobody shares its sets.
  const std::vector<CoreFootprint> one{{0, kMiB, 256 * kMiB},
                                       {0, 2 * kMiB, 256 * kMiB}};
  EXPECT_TRUE(cores_independent(cfg, one));
}

TEST(CoresIndependent, MemStressOnTwoCoresFails) {
  const std::vector<CoreFootprint> fps{{0, 1 * kMiB, 256 * kMiB},
                                       {1, 300 * kMiB, 256 * kMiB}};
  EXPECT_FALSE(cores_independent(HierarchyConfig{}, fps));
}

TEST(CoresIndependent, OverlappingFootprintsFail) {
  // One shared line is enough: the other core's fill turns a miss into a
  // hit, even in a set that never evicts.
  const std::vector<CoreFootprint> fps{{0, kMiB, 16 * 1024},
                                       {1, kMiB + 16 * 1024 - 1, 128}};
  EXPECT_FALSE(cores_independent(HierarchyConfig{}, fps));
  const std::vector<CoreFootprint> apart{{0, kMiB, 16 * 1024},
                                         {1, kMiB + 16 * 1024, 128}};
  EXPECT_TRUE(cores_independent(HierarchyConfig{}, apart));
}

TEST(CoresIndependent, SameCoreOverlapCountsLinesOnce) {
  // Nine one-line footprints on L2 set 0, two of them the same line of
  // core 0: eight distinct lines fit the eight ways; a ninth does not.
  const HierarchyConfig cfg;
  std::vector<CoreFootprint> fps{{0, kMiB, 128}, {0, kMiB, 128}};
  for (std::uint32_t i = 1; i < 8; ++i) fps.push_back({i, (i + 1) * kMiB, 128});
  EXPECT_TRUE(cores_independent(cfg, fps));
  fps.push_back({7, 9 * kMiB, 128});
  EXPECT_FALSE(cores_independent(cfg, fps));
}

TEST(CoresIndependent, L2StressPairPasses) {
  // 512 KiB = 4096 lines over 2048 L2 sets: two lines per set per core.
  const std::vector<CoreFootprint> fps{{0, 1 * kMiB, 512 * 1024},
                                       {1, 2 * kMiB, 512 * 1024}};
  EXPECT_TRUE(cores_independent(HierarchyConfig{}, fps));
}

TEST(CoresIndependent, EightStackedContextsFitExactlyTheWays) {
  const HierarchyConfig cfg;
  ASSERT_EQ(cfg.l2.associativity, 8u);
  EXPECT_TRUE(cores_independent(cfg, stacked_16k(8)));
  EXPECT_FALSE(cores_independent(cfg, stacked_16k(9)));
  EXPECT_FALSE(cores_independent(cfg, stacked_16k(16)));
}

TEST(CoresIndependent, ChecksTheL3Too) {
  // A roomy L2 with a one-way L3: the L3 decides.
  HierarchyConfig cfg;
  cfg.l3.associativity = 1;
  cfg.l3.size_bytes = 4 * kMiB;
  const std::vector<CoreFootprint> fps{{0, 1 * kMiB, 128}, {1, 5 * kMiB, 128}};
  EXPECT_FALSE(cores_independent(cfg, fps));
  const std::vector<CoreFootprint> apart{{0, 1 * kMiB, 128},
                                         {1, 5 * kMiB + 128, 128}};
  EXPECT_TRUE(cores_independent(cfg, apart));
}

TEST(CoresIndependent, FootprintsWrapAroundTheAddressSpace) {
  // [2^64 - 1 MiB, 2^64 + 1 MiB) wraps onto [0, 1 MiB), where core 1 sits.
  const std::uint64_t top = ~std::uint64_t{0} - kMiB + 1;
  const std::vector<CoreFootprint> fps{{0, top, 2 * kMiB}, {1, 0, 128}};
  EXPECT_FALSE(cores_independent(HierarchyConfig{}, fps));
}

}  // namespace
}  // namespace smtbal::mem
