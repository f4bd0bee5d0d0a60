#include "smt/sampler.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "isa/kernel.hpp"

namespace smtbal::smt {
namespace {

isa::KernelId kid(std::string_view name) {
  return isa::KernelRegistry::instance().by_name(name).id;
}

ThroughputSampler::Options fast_options() {
  return ThroughputSampler::Options{.warmup_cycles = 5000,
                                    .window_cycles = 20000,
                                    .seed = 1};
}

TEST(ChipLoad, KeyDistinguishesKernels) {
  ChipLoad a, b;
  a.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  b.contexts[0] = ContextLoad{kid(isa::kKernelCfd), HwPriority::kMedium};
  EXPECT_NE(a.key(), b.key());
}

TEST(ChipLoad, KeyDistinguishesPriorities) {
  ChipLoad a, b;
  a.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  b.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kHigh};
  EXPECT_NE(a.key(), b.key());
}

TEST(ChipLoad, KeyDistinguishesSwappedContexts) {
  // The regression that once collided: (hpc@6, spin@4) vs (hpc@4, spin@6).
  ChipLoad a, b;
  a.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kHigh};
  a.contexts[1] = ContextLoad{kid(isa::kKernelSpinWait), HwPriority::kMedium};
  b.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  b.contexts[1] = ContextLoad{kid(isa::kKernelSpinWait), HwPriority::kHigh};
  EXPECT_NE(a.key(), b.key());
}

TEST(ChipLoad, KeyDistinguishesContextPlacement) {
  ChipLoad a, b;
  a.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  b.contexts[2] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  EXPECT_NE(a.key(), b.key());
}

TEST(ChipLoad, KeyStableForEqualLoads) {
  ChipLoad a, b;
  a.contexts[1] = ContextLoad{kid(isa::kKernelCfd), HwPriority::kLow};
  b.contexts[1] = ContextLoad{kid(isa::kKernelCfd), HwPriority::kLow};
  EXPECT_EQ(a.key(), b.key());
}

TEST(ChipLoad, KeyUsesTailContexts) {
  // The key hashes the engaged prefix; loads differing only in a context
  // near the kMaxContexts bound must still get distinct keys.
  ChipLoad a, b;
  a.contexts[kMaxContexts - 1] =
      ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  b.contexts[kMaxContexts - 1] =
      ContextLoad{kid(isa::kKernelCfd), HwPriority::kMedium};
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), ChipLoad{}.key());
}

TEST(Sampler, AcceptsChipsUpToMaxContexts) {
  // 24 cores x 2 threads = 48 contexts: legal since the bound was lifted
  // from 16 to 64 (construction only; sampling a chip this wide is slow).
  ChipConfig wide;
  wide.num_cores = 24;
  wide.memory.num_cores = 24;
  ThroughputSampler sampler(wide, fast_options());
  EXPECT_EQ(wide.num_contexts(), 48u);
}

TEST(Sampler, RejectsChipsBeyondMaxContextsWithContext) {
  ChipConfig too_wide;
  too_wide.num_cores = 33;  // 66 contexts > 64
  too_wide.memory.num_cores = 33;
  try {
    ThroughputSampler sampler(too_wide, fast_options());
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("66"), std::string::npos) << what;
    EXPECT_NE(what.find("64"), std::string::npos) << what;
    EXPECT_NE(what.find("kMaxContexts"), std::string::npos) << what;
  }
}

TEST(Sampler, MemoisesRepeatedLoads) {
  ThroughputSampler sampler(ChipConfig{}, fast_options());
  ChipLoad load;
  load.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  const SampleResult& first = sampler.sample(load);
  const SampleResult& second = sampler.sample(load);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(sampler.stats().lookups, 2u);
  EXPECT_EQ(sampler.stats().misses, 1u);
}

TEST(Sampler, IdleContextsReportZero) {
  ThroughputSampler sampler(ChipConfig{}, fast_options());
  ChipLoad load;
  load.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  const SampleResult& result = sampler.sample(load);
  EXPECT_GT(result.ipc[0], 0.0);
  EXPECT_EQ(result.ipc[1], 0.0);
  EXPECT_EQ(result.ipc[2], 0.0);
  EXPECT_EQ(result.ipc[3], 0.0);
}

TEST(Sampler, InstrRateIsIpcTimesFrequency) {
  ChipConfig cfg;
  ThroughputSampler sampler(cfg, fast_options());
  ChipLoad load;
  load.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  const SampleResult& result = sampler.sample(load);
  EXPECT_DOUBLE_EQ(result.instr_rate[0], result.ipc[0] * cfg.frequency_hz());
}

TEST(Sampler, DeterministicAcrossInstances) {
  ChipLoad load;
  load.contexts[0] = ContextLoad{kid(isa::kKernelCfd), HwPriority::kMedium};
  load.contexts[1] = ContextLoad{kid(isa::kKernelSpinWait), HwPriority::kMedium};
  ThroughputSampler s1(ChipConfig{}, fast_options());
  ThroughputSampler s2(ChipConfig{}, fast_options());
  EXPECT_DOUBLE_EQ(s1.sample(load).ipc[0], s2.sample(load).ipc[0]);
  EXPECT_DOUBLE_EQ(s1.sample(load).ipc[1], s2.sample(load).ipc[1]);
}

TEST(Sampler, OrderIndependentResults) {
  // Sampling A then B must give the same rates as B then A: memoised
  // measurements must not depend on sampler history.
  ChipLoad a, b;
  a.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  b.contexts[0] = ContextLoad{kid(isa::kKernelL2Stress), HwPriority::kMedium};
  ThroughputSampler s1(ChipConfig{}, fast_options());
  ThroughputSampler s2(ChipConfig{}, fast_options());
  const double a1 = s1.sample(a).ipc[0];
  (void)s1.sample(b);
  (void)s2.sample(b);
  const double a2 = s2.sample(a).ipc[0];
  EXPECT_DOUBLE_EQ(a1, a2);
}

TEST(Sampler, MeasurementsUnaffectedByPriorHistory) {
  // Regression: Core::drain() once carried the cycle counter across
  // measurements, so the decode-arbiter slice (and the issue-scan
  // rotation) of a measurement depended on how many cycles the chip had
  // already run. Under short windows and asymmetric priorities the phase
  // shift changed measured IPC outright, which broke BatchRunner's shared
  // SampleCache soundness (measure() must be pure): a worker that adopted
  // a published key instead of measuring it got *different bits* for every
  // later key. This shape — SMT4, multi-core, tiny fuzzer-sized windows,
  // HIGH/LOW priorities — diverged on every kernel before the fix.
  ChipConfig chip;
  chip.num_cores = 3;
  chip.memory.num_cores = 3;
  chip.core.threads_per_core = 4;
  const ThroughputSampler::Options options{.warmup_cycles = 500,
                                           .window_cycles = 2000,
                                           .seed = 9};
  ChipLoad junk, target;
  junk.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  const isa::KernelId kernels[] = {
      kid(isa::kKernelHpcMixed), kid(isa::kKernelSpinWait),
      kid(isa::kKernelL2Stress), kid(isa::kKernelCfd)};
  const HwPriority priorities[] = {HwPriority::kHigh, HwPriority::kLow,
                                   HwPriority::kMedium, HwPriority::kMedium};
  for (int c = 0; c < 6; ++c) {
    target.contexts[c] = ContextLoad{kernels[c % 4], priorities[c % 4]};
  }
  ThroughputSampler with_history(chip, options);
  ThroughputSampler fresh(chip, options);
  (void)with_history.sample(junk);
  const SampleResult r1 = with_history.sample(target);
  const SampleResult r2 = fresh.sample(target);
  for (int c = 0; c < 6; ++c) {
    EXPECT_EQ(r1.ipc[c], r2.ipc[c]) << "context " << c;
  }
}

TEST(Sampler, SpinKernelStealsFromComputePartner) {
  // The mechanism behind the whole paper: a busy-waiting rank at equal
  // priority takes decode slots from the computing rank; lowering the
  // spinner's priority gives them back.
  ThroughputSampler sampler(ChipConfig{}, fast_options());
  ChipLoad alone;
  alone.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  ChipLoad with_spin = alone;
  with_spin.contexts[1] =
      ContextLoad{kid(isa::kKernelSpinWait), HwPriority::kMedium};
  ChipLoad spin_lowered = alone;
  spin_lowered.contexts[1] =
      ContextLoad{kid(isa::kKernelSpinWait), HwPriority::kLow};

  const double solo = sampler.sample(alone).ipc[0];
  const double vs_spin = sampler.sample(with_spin).ipc[0];
  const double vs_lowered = sampler.sample(spin_lowered).ipc[0];
  EXPECT_LT(vs_spin, solo * 0.95);
  EXPECT_GT(vs_lowered, vs_spin * 1.05);
}

TEST(Sampler, CrossCoreInterferenceIsSmall) {
  // Cores share only L2/L3; two cache-resident kernels on different cores
  // must run at nearly solo speed.
  ThroughputSampler sampler(ChipConfig{}, fast_options());
  ChipLoad alone;
  alone.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  ChipLoad both = alone;
  both.contexts[2] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  const double solo = sampler.sample(alone).ipc[0];
  const double shared = sampler.sample(both).ipc[0];
  EXPECT_NEAR(shared, solo, solo * 0.05);
}

// Entries resident in `cache`: every insert stays until it is evicted.
std::uint64_t resident(const SampleCache& cache) {
  const SampleCacheStats stats = cache.stats();
  return stats.inserts - stats.evictions;
}

TEST(SampleCache, ServesPublishedResultsAndCountsHits) {
  SampleCache cache;
  EXPECT_FALSE(cache.lookup(42).has_value());
  SampleResult result;
  result.ipc[0] = 1.25;
  cache.publish(42, result);
  const auto hit = cache.lookup(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->ipc[0], 1.25);
  // Duplicate publish: first writer wins, no double insert. The
  // deliberately divergent value needs lenient mode — strict (the debug
  // default) makes a divergent re-publish fatal.
  cache.set_strict(false);
  SampleResult other;
  other.ipc[0] = 9.0;
  cache.publish(42, other);
  EXPECT_DOUBLE_EQ(cache.lookup(42)->ipc[0], 1.25);
  const SampleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(resident(cache), 1u);
  EXPECT_NEAR(stats.hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(SampleCache, CapacityEvictsOldestInsertionFirst) {
  // Bounded mode evicts deterministically in FIFO insertion order, so a
  // capped run is still reproducible (same inserts -> same evictions).
  SampleCache cache;
  cache.set_capacity(2);
  SampleResult result;
  for (std::uint64_t key = 1; key <= 4; ++key) {
    result.ipc[0] = static_cast<double>(key);
    cache.publish(key, result);
  }
  // Keys 1 and 2 (the oldest inserts) were evicted; 3 and 4 survive.
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  ASSERT_TRUE(cache.lookup(3).has_value());
  EXPECT_DOUBLE_EQ(cache.lookup(3)->ipc[0], 3.0);
  ASSERT_TRUE(cache.lookup(4).has_value());
  EXPECT_EQ(resident(cache), 2u);
  const SampleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.peak_size, 2u);
}

TEST(SampleCache, SetCapacityShrinksExistingEntries) {
  SampleCache cache;
  SampleResult result;
  for (std::uint64_t key = 10; key < 15; ++key) cache.publish(key, result);
  EXPECT_EQ(cache.stats().peak_size, 5u);
  cache.set_capacity(2);
  EXPECT_EQ(resident(cache), 2u);
  EXPECT_EQ(cache.stats().evictions, 3u);
  // FIFO: the three oldest (10, 11, 12) went first.
  EXPECT_FALSE(cache.lookup(10).has_value());
  EXPECT_FALSE(cache.lookup(12).has_value());
  EXPECT_TRUE(cache.lookup(13).has_value());
  EXPECT_TRUE(cache.lookup(14).has_value());
  // peak_size is a high-water mark; shrinking does not rewind it.
  EXPECT_EQ(cache.stats().peak_size, 5u);
}

TEST(SampleCache, UnboundedByDefaultNeverEvicts) {
  SampleCache cache;
  SampleResult result;
  for (std::uint64_t key = 0; key < 100; ++key) cache.publish(key, result);
  EXPECT_EQ(resident(cache), 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().peak_size, 100u);
}

TEST(Sampler, CountsLocalHitsExplicitly) {
  // local_hits is its own counter, not derived: deriving it as
  // lookups - misses - shared_hits lumps post-promotion hits and cold
  // local hits together whenever a shared cache is attached.
  ThroughputSampler sampler(ChipConfig{}, fast_options());
  ChipLoad load;
  load.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  (void)sampler.sample(load);
  EXPECT_EQ(sampler.stats().misses, 1u);
  EXPECT_EQ(sampler.stats().local_hits, 0u);
  (void)sampler.sample(load);
  (void)sampler.sample(load);
  const SamplerStats& stats = sampler.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.local_hits, 2u);
  EXPECT_EQ(stats.shared_hits, 0u);
}

TEST(Sampler, SharedCacheAvoidsRemeasuring) {
  // Two samplers (as two BatchRunner workers would own) attached to one
  // cache: the second sampler serves the first's measurement without
  // running the cycle model, and returns bit-identical rates.
  const auto cache = std::make_shared<SampleCache>();
  ThroughputSampler s1(ChipConfig{}, fast_options());
  ThroughputSampler s2(ChipConfig{}, fast_options());
  s1.attach_shared_cache(cache);
  s2.attach_shared_cache(cache);

  ChipLoad load;
  load.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  const double first = s1.sample(load).ipc[0];
  EXPECT_EQ(s1.stats().misses, 1u);
  EXPECT_EQ(cache->stats().inserts, 1u);

  const double second = s2.sample(load).ipc[0];
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(s2.stats().misses, 0u) << "the shared cache must serve the hit";
  EXPECT_EQ(s2.stats().shared_hits, 1u);

  // s2's local cache now holds the entry: a repeat lookup touches neither
  // the chip model nor the shared cache.
  (void)s2.sample(load);
  EXPECT_EQ(s2.stats().shared_hits, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(Sampler, RejectsBadOptions) {
  ThroughputSampler::Options options;
  options.window_cycles = 0;
  EXPECT_THROW(ThroughputSampler(ChipConfig{}, options), InvalidArgument);
}

TEST(ChipLoad, KeyCollisionAcrossContextCounts) {
  // Regression for the seed-only length fold: folding the prefix length
  // into the seed alone lets a longer load's trailing word cancel the
  // length difference and replay a shorter load's chain. This pair was
  // constructed to collide under that scheme; reimplement it here so the
  // collision stays demonstrable.
  const auto old_key = [](const ChipLoad& load) {
    std::size_t used = load.contexts.size();
    while (used > 0 && !load.contexts[used - 1].has_value()) --used;
    std::uint64_t state = 0x5b17'ba1a'ce00'0001ULL ^ used;
    for (std::size_t ctx = 0; ctx < used; ++ctx) {
      const auto& slot = load.contexts[ctx];
      std::uint64_t word = 0;
      if (slot.has_value()) {
        word = (std::uint64_t{slot->kernel} + 1) << 4 |
               static_cast<std::uint64_t>(slot->priority);
      }
      std::uint64_t mixed = state ^ word;
      state = splitmix64(mixed);
    }
    return state;
  };

  ChipLoad one;
  one.contexts[0] = ContextLoad{7, HwPriority::kMedium};
  ChipLoad two;
  two.contexts[0] = ContextLoad{19884184u, HwPriority::kMedium};
  two.contexts[1] = ContextLoad{2630976577u, HwPriority::kMedium};

  EXPECT_EQ(old_key(one), 0xd7af9c6f2777ab9aULL);
  EXPECT_EQ(old_key(two), 0xd7af9c6f2777ab9aULL)
      << "the adversarial pair no longer collides under the old scheme; "
         "the regression test lost its witness";
  EXPECT_NE(one.key(), two.key())
      << "context-count fold regressed: distinct loads share a key";
}

TEST(SampleCache, CountsDivergentRepublishesWhenLenient) {
  SampleCache cache;
  cache.set_strict(false);
  SampleResult a;
  a.ipc[0] = 1.25;
  SampleResult b = a;
  b.ipc[0] = 1.5;

  cache.publish(42, a);
  cache.publish(42, a);  // benign lost race: same value, dropped silently
  EXPECT_EQ(cache.stats().divergent, 0u);

  cache.publish(42, b);  // purity violation: same key, different value
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().divergent, 1u);
  // First writer wins; the divergent value must not clobber the cache.
  const auto cached = cache.lookup(42);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->ipc[0], 1.25);
}

TEST(SampleCache, StrictModeFailsLoudlyOnDivergence) {
  SampleCache cache;
  cache.set_strict(true);
  SampleResult a;
  a.ipc[0] = 1.25;
  SampleResult b = a;
  b.ipc[0] = 1.5;

  cache.publish(7, a);
  cache.publish(7, a);  // identical re-publish stays legal in strict mode
  EXPECT_THROW(cache.publish(7, b), std::logic_error);
  EXPECT_EQ(cache.stats().divergent, 1u);
}

// --- shape seeding ----------------------------------------------------------

TEST(ChipShapeSeed, FoldsCoresWidthAndFrequency) {
  const ChipConfig base;
  ChipConfig more_cores = base;
  more_cores.num_cores = 4;
  more_cores.memory.num_cores = 4;
  ChipConfig wider = base;
  wider.core.threads_per_core = 4;
  ChipConfig faster = base;
  faster.frequency_ghz = 2.0;

  EXPECT_EQ(chip_shape_seed(base), chip_shape_seed(ChipConfig{}));
  EXPECT_NE(chip_shape_seed(base), chip_shape_seed(more_cores));
  EXPECT_NE(chip_shape_seed(base), chip_shape_seed(wider));
  EXPECT_NE(chip_shape_seed(base), chip_shape_seed(faster));
  EXPECT_NE(chip_shape_seed(more_cores), chip_shape_seed(wider));
}

TEST(ChipLoad, DefaultShapeSeedPreservesHistoricalKeys) {
  ChipLoad load;
  load.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  EXPECT_EQ(load.key(), load.key(0));
  // A non-zero shape seed re-keys the same load.
  EXPECT_NE(load.key(), load.key(chip_shape_seed(ChipConfig{})));
}

TEST(Sampler, ShapeSeedMatchesItsChip) {
  ChipConfig wide;
  wide.core.threads_per_core = 4;
  const ThroughputSampler narrow(ChipConfig{}, fast_options());
  const ThroughputSampler smt4(wide, fast_options());
  EXPECT_EQ(narrow.shape_seed(), chip_shape_seed(ChipConfig{}));
  EXPECT_EQ(smt4.shape_seed(), chip_shape_seed(wide));
  EXPECT_NE(narrow.shape_seed(), smt4.shape_seed());
}

TEST(Sampler, SharedCacheAcrossShapesNeverServesCrossChipHits) {
  // One cache under two differently shaped chips — the heterogeneous
  // cluster arrangement. The same ChipLoad keys differently per shape,
  // so the second sampler must measure for itself, not inherit the first
  // chip's rates.
  const auto cache = std::make_shared<SampleCache>();
  ChipConfig wide;
  wide.core.threads_per_core = 4;
  ThroughputSampler s1(ChipConfig{}, fast_options());
  ThroughputSampler s2(wide, fast_options());
  s1.attach_shared_cache(cache);
  s2.attach_shared_cache(cache);

  ChipLoad load;
  load.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kMedium};
  (void)s1.sample(load);
  EXPECT_EQ(s1.stats().misses, 1u);
  (void)s2.sample(load);
  EXPECT_EQ(s2.stats().misses, 1u) << "cross-shape lookup must not hit";
  EXPECT_EQ(s2.stats().shared_hits, 0u);
  EXPECT_EQ(cache->stats().inserts, 2u);
}

// --- per-core factorisation -------------------------------------------------

ChipLoad load_of(
    std::initializer_list<std::pair<std::uint32_t, ContextLoad>> slots) {
  ChipLoad load;
  for (const auto& [ctx, context] : slots) load.contexts[ctx] = context;
  return load;
}

ContextLoad on(std::string_view kernel,
               HwPriority priority = HwPriority::kMedium) {
  return ContextLoad{kid(kernel), priority};
}

ChipConfig chip_with_cores(std::uint32_t cores) {
  ChipConfig config;
  config.num_cores = cores;
  config.memory.num_cores = cores;
  return config;
}

TEST(Factorisation, CertificateCases) {
  ThroughputSampler two(ChipConfig{}, fast_options());
  EXPECT_FALSE(two.factorisable(load_of(
      {{0, on(isa::kKernelMemStress)}, {2, on(isa::kKernelMemStress)}})));
  EXPECT_TRUE(two.factorisable(load_of(
      {{0, on(isa::kKernelL2Stress)}, {2, on(isa::kKernelL2Stress)}})));
  EXPECT_TRUE(two.factorisable(load_of(
      {{0, on(isa::kKernelHpcMixed)}, {1, on(isa::kKernelSpinWait)},
       {3, on(isa::kKernelCfd)}})));
  // mem_stress alone on its core only shares sets with itself.
  EXPECT_TRUE(two.factorisable(load_of(
      {{0, on(isa::kKernelMemStress)}, {1, on(isa::kKernelL2Stress)}})));

  // 1 MiB-aligned slices stack every 16 KiB stream on L2 sets 0-127: eight
  // contexts fill the eight ways exactly, sixteen overflow them.
  ChipLoad stacked;
  for (std::uint32_t ctx = 0; ctx < 16; ++ctx) {
    stacked.contexts[ctx] = on(isa::kKernelHpcMixed);
  }
  ThroughputSampler four(chip_with_cores(4), fast_options());
  EXPECT_TRUE(four.factorisable(stacked));
  ThroughputSampler eight(chip_with_cores(8), fast_options());
  EXPECT_FALSE(eight.factorisable(stacked));

  ThroughputSampler one(chip_with_cores(1), fast_options());
  EXPECT_FALSE(one.factorisable(load_of({{0, on(isa::kKernelHpcMixed)}})));
}

TEST(Factorisation, MatchesFullChipBitForBit) {
  ThroughputSampler sampler(ChipConfig{}, fast_options());
  const std::vector<ChipLoad> loads = {
      load_of({{0, on(isa::kKernelHpcMixed, HwPriority::kHigh)},
               {1, on(isa::kKernelSpinWait, HwPriority::kLow)},
               {2, on(isa::kKernelHpcMixed)},
               {3, on(isa::kKernelSpinWait)}}),
      load_of({{0, on(isa::kKernelL2Stress)}, {2, on(isa::kKernelL2Stress)},
               {3, on(isa::kKernelFpuStress, HwPriority::kMediumHigh)}}),
      load_of({{1, on(isa::kKernelCfd)}, {3, on(isa::kKernelDft)}}),
      load_of({{2, on(isa::kKernelBranchStress)}}),
      load_of({{0, on(isa::kKernelMemStress)}, {2, on(isa::kKernelIntStress)}}),
      ChipLoad{},
  };
  for (const ChipLoad& load : loads) {
    EXPECT_EQ(sampler.sample(load), sampler.measure_full_chip(load));
  }
  const SamplerStats& stats = sampler.stats();
  EXPECT_EQ(stats.misses, loads.size());
  EXPECT_EQ(stats.full_chip_fallbacks, 1u) << "only the mem_stress load";
  // Busy cores of the five factorised loads: 2 + 2 + 2 + 1 + 0.
  EXPECT_EQ(stats.core_measurements + stats.core_hits, 7u);
}

TEST(Factorisation, ReusesPerCoreMeasurementsAcrossLoads) {
  ThroughputSampler sampler(ChipConfig{}, fast_options());
  const ChipLoad first = load_of({{0, on(isa::kKernelHpcMixed)},
                                  {2, on(isa::kKernelFpuStress)}});
  const ChipLoad second = load_of({{0, on(isa::kKernelHpcMixed)},
                                   {2, on(isa::kKernelIntStress)}});
  (void)sampler.sample(first);
  EXPECT_EQ(sampler.stats().core_measurements, 2u);
  EXPECT_EQ(sampler.stats().core_hits, 0u);
  const SampleResult& rates = sampler.sample(second);
  EXPECT_EQ(sampler.stats().misses, 2u) << "chip-level counting is unchanged";
  EXPECT_EQ(sampler.stats().core_measurements, 3u);
  EXPECT_EQ(sampler.stats().core_hits, 1u);
  EXPECT_EQ(rates, sampler.measure_full_chip(second));
}

TEST(Factorisation, IdleCoresAreNeverSimulated) {
  ThroughputSampler sampler(ChipConfig{}, fast_options());
  (void)sampler.sample(load_of({{3, on(isa::kKernelHpcMixed)}}));
  (void)sampler.sample(ChipLoad{});
  EXPECT_EQ(sampler.stats().core_measurements, 1u);
  EXPECT_EQ(sampler.stats().full_chip_fallbacks, 0u);
}

TEST(Factorisation, FailedCertificateFallsBackToTheFullChip) {
  ChipLoad stacked;
  for (std::uint32_t ctx = 0; ctx < 16; ++ctx) {
    stacked.contexts[ctx] = on(isa::kKernelHpcMixed);
  }
  ThroughputSampler sampler(chip_with_cores(8),
                            ThroughputSampler::Options{.warmup_cycles = 1000,
                                                       .window_cycles = 4000,
                                                       .seed = 1});
  const SampleResult result = sampler.sample(stacked);
  EXPECT_EQ(sampler.stats().full_chip_fallbacks, 1u);
  EXPECT_EQ(sampler.stats().core_measurements, 0u);
  EXPECT_EQ(result, sampler.measure_full_chip(stacked));
}

TEST(ChipLoad, CoreKeyFoldsTheCoreIndex) {
  const ChipLoad load = load_of({{0, on(isa::kKernelHpcMixed)},
                                 {2, on(isa::kKernelHpcMixed)}});
  EXPECT_NE(load.core_key(0, 2), load.core_key(1, 2));
  EXPECT_NE(load.core_key(0, 2), load.core_key(0, 2, 0x1234));
  EXPECT_EQ(load.core_key(0, 2),
            load_of({{0, on(isa::kKernelHpcMixed)}}).core_key(0, 2))
      << "other cores' contexts do not enter a core's key";
}

TEST(ChipLoad, CoreKeySeparatesCoreFromPriority) {
  // Regression: a per-core key seeded with chain_seed(core + 1) XOR-ed the
  // core into the same word as the context's low (priority) bits, so core
  // 0 at priority 6 collided with core 1 at priority 5 (1^6 == 2^5) and a
  // sampler served one load's rates for the other.
  const ChipLoad core0 =
      load_of({{0, on(isa::kKernelHpcMixed, HwPriority::kHigh)}});
  const ChipLoad core1 =
      load_of({{2, on(isa::kKernelHpcMixed, HwPriority::kMediumHigh)}});
  EXPECT_NE(core0.core_key(0, 2), core1.core_key(1, 2));

  ThroughputSampler sampler(ChipConfig{}, fast_options());
  const ChipLoad both_a =
      load_of({{0, on(isa::kKernelHpcMixed, HwPriority::kHigh)},
               {1, on(isa::kKernelSpinWait)}});
  const ChipLoad both_b =
      load_of({{2, on(isa::kKernelHpcMixed, HwPriority::kMediumHigh)},
               {3, on(isa::kKernelSpinWait)}});
  EXPECT_EQ(sampler.sample(both_a), sampler.measure_full_chip(both_a));
  EXPECT_EQ(sampler.sample(both_b), sampler.measure_full_chip(both_b));
  EXPECT_EQ(sampler.stats().core_hits, 0u);
}

TEST(ThroughputSampler, ReusedSamplerMeasuresBitIdenticallyToAFreshOne) {
  // Caches are flushed, not rebuilt, between measurements: 100 unrelated
  // measurements on one sampler must leave no trace in the next one.
  const ThroughputSampler::Options options{
      .warmup_cycles = 500, .window_cycles = 2000, .seed = 1};
  ChipLoad probe_load;
  probe_load.contexts[0] = ContextLoad{kid(isa::kKernelHpcMixed), HwPriority::kHigh};
  probe_load.contexts[1] = ContextLoad{kid(isa::kKernelMemStress), HwPriority::kMedium};
  probe_load.contexts[2] = ContextLoad{kid(isa::kKernelL2Stress), HwPriority::kLow};

  ThroughputSampler fresh(ChipConfig{}, options);
  const SampleResult want = fresh.measure_full_chip(probe_load);

  ThroughputSampler reused(ChipConfig{}, options);
  const auto& kernels = isa::KernelRegistry::instance().all();
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    ChipLoad load;
    for (std::uint32_t ctx = 0; ctx < ChipConfig{}.num_contexts(); ++ctx) {
      if (rng.chance(0.25)) continue;
      load.contexts[ctx] = ContextLoad{
          kernels[rng.below(kernels.size())].id,
          static_cast<HwPriority>(rng.range(2, 6))};
    }
    (void)reused.measure_full_chip(load);
  }
  EXPECT_EQ(reused.measure_full_chip(probe_load), want);
}

}  // namespace
}  // namespace smtbal::smt
