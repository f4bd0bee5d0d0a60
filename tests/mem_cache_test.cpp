#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mem/hierarchy.hpp"

namespace smtbal::mem {
namespace {

CacheConfig small_cache() {
  // 4 sets x 2 ways x 64B lines = 512 B.
  return CacheConfig{.name = "test",
                     .size_bytes = 512,
                     .line_bytes = 64,
                     .associativity = 2,
                     .hit_latency = 1};
}

TEST(CacheConfig, ValidatesGoodConfig) {
  EXPECT_NO_THROW(small_cache().validate());
  EXPECT_EQ(small_cache().num_sets(), 4u);
}

TEST(CacheConfig, RejectsNonPowerOfTwoLine) {
  CacheConfig cfg = small_cache();
  cfg.line_bytes = 48;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(CacheConfig, RejectsZeroAssociativity) {
  CacheConfig cfg = small_cache();
  cfg.associativity = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(CacheConfig, RejectsNonDivisibleSize) {
  CacheConfig cfg = small_cache();
  cfg.size_bytes = 500;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(CacheConfig, RejectsNonPowerOfTwoSets) {
  CacheConfig cfg = small_cache();
  cfg.size_bytes = 384;  // 3 sets
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(Cache, ColdMissThenHit) {
  Cache cache(small_cache());
  EXPECT_FALSE(cache.access(0x1000, false));
  EXPECT_TRUE(cache.access(0x1000, false));
  EXPECT_TRUE(cache.access(0x1038, false));  // same 64B line
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, DistinctLinesMissSeparately) {
  Cache cache(small_cache());
  EXPECT_FALSE(cache.access(0x0, false));
  EXPECT_FALSE(cache.access(0x40, false));
  EXPECT_TRUE(cache.access(0x0, false));
  EXPECT_TRUE(cache.access(0x40, false));
}

TEST(Cache, LruEvictionOrder) {
  Cache cache(small_cache());
  // Set 0 holds lines whose (address / 64) % 4 == 0: strides of 256.
  cache.access(0x000, false);  // A
  cache.access(0x100, false);  // B — set full (2 ways)
  cache.access(0x000, false);  // touch A: B becomes LRU
  cache.access(0x200, false);  // C evicts B
  EXPECT_TRUE(cache.probe(0x000));
  EXPECT_FALSE(cache.probe(0x100));
  EXPECT_TRUE(cache.probe(0x200));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionCounted) {
  Cache cache(small_cache());
  cache.access(0x000, true);   // dirty A
  cache.access(0x100, false);  // clean B
  cache.access(0x200, false);  // evicts A (LRU), dirty
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
  cache.access(0x300, false);  // evicts B, clean
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache cache(small_cache());
  cache.access(0x000, false);  // clean fill
  cache.access(0x000, true);   // write hit → dirty
  cache.access(0x100, false);
  cache.access(0x200, false);  // evicts A
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
}

TEST(Cache, ProbeDoesNotMutate) {
  Cache cache(small_cache());
  cache.access(0x000, false);
  cache.access(0x100, false);
  // Probing A must NOT refresh its LRU position.
  EXPECT_TRUE(cache.probe(0x000));
  cache.access(0x200, false);  // evicts A (still LRU despite probe)
  EXPECT_FALSE(cache.probe(0x000));
  // Stats unchanged by probes.
  EXPECT_EQ(cache.stats().accesses(), 3u);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache cache(small_cache());
  cache.access(0x000, false);
  cache.access(0x040, false);
  EXPECT_EQ(cache.valid_lines(), 2u);
  cache.flush();
  EXPECT_EQ(cache.valid_lines(), 0u);
  EXPECT_FALSE(cache.probe(0x000));
}

TEST(Cache, ResetStatsKeepsContents) {
  Cache cache(small_cache());
  cache.access(0x000, false);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses(), 0u);
  EXPECT_TRUE(cache.probe(0x000));
}

TEST(Cache, MissRateComputation) {
  Cache cache(small_cache());
  EXPECT_EQ(cache.stats().miss_rate(), 0.0);
  cache.access(0x000, false);
  cache.access(0x000, false);
  cache.access(0x000, false);
  cache.access(0x000, false);
  EXPECT_DOUBLE_EQ(cache.stats().miss_rate(), 0.25);
}

TEST(Cache, FullyOccupiedWorkingSetFits) {
  Cache cache(small_cache());
  // 8 lines total (512B / 64B): a 512B working set must all fit.
  for (std::uint64_t addr = 0; addr < 512; addr += 64) cache.access(addr, false);
  EXPECT_EQ(cache.valid_lines(), 8u);
  for (std::uint64_t addr = 0; addr < 512; addr += 64) {
    EXPECT_TRUE(cache.access(addr, false)) << "addr " << addr;
  }
}

TEST(Cache, CyclicOverCapacityThrashes) {
  Cache cache(small_cache());
  // 16 lines cycled through an 8-line cache with LRU: every access misses.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t addr = 0; addr < 1024; addr += 64) {
      cache.access(addr, false);
    }
  }
  EXPECT_EQ(cache.stats().hits, 0u);
}

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {};

TEST_P(CacheGeometrySweep, WorkingSetWithinCapacityAlwaysHitsAfterWarmup) {
  const auto [size, assoc] = GetParam();
  Cache cache(CacheConfig{.name = "sweep",
                          .size_bytes = size,
                          .line_bytes = 64,
                          .associativity = assoc,
                          .hit_latency = 1});
  const std::uint64_t lines = size / 64;
  for (std::uint64_t i = 0; i < lines; ++i) cache.access(i * 64, false);
  cache.reset_stats();
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t i = 0; i < lines; ++i) cache.access(i * 64, false);
  }
  EXPECT_EQ(cache.stats().misses, 0u)
      << "size=" << size << " assoc=" << assoc;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Combine(::testing::Values(512ULL, 4096ULL, 32768ULL),
                       ::testing::Values(1u, 2u, 4u, 8u)));

/// The tag store as it was before the O(1) flush: explicit valid and
/// dirty bits, a flush that zero-fills every line and resets the LRU
/// clock. The differential test below holds Cache to it access by access.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : config_(config), lines_(config.num_sets() * config.associativity) {}

  bool access(std::uint64_t address, bool is_write) {
    Line* const begin = set_of(address);
    Line* const end = begin + config_.associativity;
    const std::uint64_t tag = tag_of(address);
    for (Line* line = begin; line != end; ++line) {
      if (line->valid && line->tag == tag) {
        line->lru = ++clock_;
        line->dirty = line->dirty || is_write;
        ++stats_.hits;
        return true;
      }
    }
    ++stats_.misses;
    Line* victim = begin;
    for (Line* line = begin; line != end; ++line) {
      if (!line->valid) {
        victim = line;
        break;
      }
      if (line->lru < victim->lru) victim = line;
    }
    if (victim->valid) {
      ++stats_.evictions;
      if (victim->dirty) ++stats_.dirty_evictions;
    }
    *victim = Line{tag, ++clock_, true, is_write};
    return false;
  }

  [[nodiscard]] bool probe(std::uint64_t address) {
    const Line* const begin = set_of(address);
    const std::uint64_t tag = tag_of(address);
    return std::any_of(begin, begin + config_.associativity,
                       [&](const Line& l) { return l.valid && l.tag == tag; });
  }

  void flush() {
    for (Line& line : lines_) line = Line{};
    clock_ = 0;
  }

  [[nodiscard]] std::uint64_t valid_lines() const {
    return static_cast<std::uint64_t>(std::count_if(
        lines_.begin(), lines_.end(), [](const Line& l) { return l.valid; }));
  }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  Line* set_of(std::uint64_t address) {
    const std::uint64_t set =
        (address / config_.line_bytes) & (config_.num_sets() - 1);
    return &lines_[set * config_.associativity];
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t address) const {
    return address / config_.line_bytes / config_.num_sets();
  }

  CacheConfig config_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& got, const CacheStats& want,
                       std::size_t step) {
  EXPECT_EQ(got.hits, want.hits) << "step " << step;
  EXPECT_EQ(got.misses, want.misses) << "step " << step;
  EXPECT_EQ(got.evictions, want.evictions) << "step " << step;
  EXPECT_EQ(got.dirty_evictions, want.dirty_evictions) << "step " << step;
}

class CacheDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CacheDifferential, MatchesTheZeroFillReferenceAccessByAccess) {
  const HierarchyConfig defaults;
  const CacheConfig config = GetParam() == 0   ? defaults.l1d
                             : GetParam() == 1 ? defaults.l2
                                               : defaults.l3;
  Cache cache(config);
  ReferenceCache reference(config);

  // Addresses concentrate on a few sets spread over the whole cache and a
  // few more tags than ways, so hits, evictions and dirty evictions are
  // all frequent; one access in 64 is an arbitrary 64-bit address.
  std::mt19937_64 rng(0xCAC4E + static_cast<std::uint64_t>(GetParam()));
  const std::uint64_t sets = config.num_sets();
  const std::uint64_t line = config.line_bytes;
  std::vector<std::uint64_t> hot_sets(16);
  for (std::uint64_t& set : hot_sets) set = rng() % sets;
  const auto address = [&] {
    if (rng() % 64 == 0) return rng();
    const std::uint64_t set = hot_sets[rng() % hot_sets.size()];
    const std::uint64_t tag = rng() % (config.associativity + 3);
    return (tag * sets + set) * line + rng() % line;
  };

  constexpr std::size_t kSteps = 60000;
  for (std::size_t step = 0; step < kSteps; ++step) {
    if (rng() % 4000 == 0) {
      cache.flush();
      reference.flush();
    }
    const std::uint64_t target = address();
    const bool is_write = rng() % 3 == 0;
    ASSERT_EQ(cache.access(target, is_write), reference.access(target, is_write))
        << "step " << step;
    const std::uint64_t other = address();
    ASSERT_EQ(cache.probe(other), reference.probe(other)) << "step " << step;
    if (step % 5000 == 0) {
      ASSERT_EQ(cache.valid_lines(), reference.valid_lines()) << "step " << step;
      expect_same_stats(cache.stats(), reference.stats(), step);
    }
  }
  EXPECT_EQ(cache.valid_lines(), reference.valid_lines());
  expect_same_stats(cache.stats(), reference.stats(), kSteps);
  EXPECT_GT(cache.stats().dirty_evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(DefaultHierarchy, CacheDifferential,
                         ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           return std::string(info.param == 0   ? "L1D"
                                              : info.param == 1 ? "L2"
                                                                : "L3");
                         });

TEST(Cache, TagStorageIsCommittedOnFirstFillOnly) {
  const Cache fresh(HierarchyConfig{}.l3);
  EXPECT_EQ(fresh.committed_blocks(), 0u);
  EXPECT_EQ(fresh.valid_lines(), 0u);
  EXPECT_FALSE(fresh.probe(0x1234'5680));
  EXPECT_EQ(fresh.committed_blocks(), 0u);

  Cache cache(HierarchyConfig{}.l3);
  cache.access(0x1234'5680, false);
  EXPECT_EQ(cache.committed_blocks(), 1u);
  // A line in another set of the same block commits nothing more.
  cache.access(0x1234'5680 + cache.config().line_bytes, true);
  EXPECT_EQ(cache.committed_blocks(), 1u);
  EXPECT_EQ(cache.valid_lines(), 2u);

  // flush() invalidates without touching or releasing storage.
  cache.flush();
  EXPECT_EQ(cache.committed_blocks(), 1u);
  EXPECT_EQ(cache.valid_lines(), 0u);
  EXPECT_FALSE(cache.probe(0x1234'5680));
  EXPECT_FALSE(cache.access(0x1234'5680, false));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace smtbal::mem
