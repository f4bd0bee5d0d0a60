// Throughput sampler: the bridge between the cycle-level chip model and
// the discrete-event application simulator.
//
// Full cycle simulation of an MPI application would take ~10^11 simulated
// cycles; instead, whenever the set of (kernel, priority) pairs on the
// chip's contexts changes, the engine asks this sampler for the
// steady-state per-context instruction rates of that configuration. The
// sampler runs the cycle model for a short warm-up + measurement window
// and memoises the result per chip load, in its own table and, when one is
// attached, in a SampleCache shared by the samplers of one domain.
//
// A missed load is measured core by core when a static certificate
// (mem::cores_independent) proves that no core can change another core's
// cache outcomes: each busy core then runs alone and is memoised under its
// own per-core key, idle cores are never simulated, and the result is
// bit-identical to a whole-chip measurement. Loads that fail the
// certificate, and every load on a one-core chip, run the whole chip.
// See DESIGN.md §16.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "isa/kernel.hpp"
#include "isa/stream.hpp"
#include "smt/chip.hpp"

namespace smtbal::smt {

/// Hard ceiling on contexts *per sampling domain* (one chip / one cluster
/// node), sizing the fixed ChipLoad/SampleResult arrays. A cluster run is
/// bounded per node, not in total: M nodes x kMaxContexts contexts.
inline constexpr std::uint32_t kMaxContexts = 64;

/// What one hardware context is running.
struct ContextLoad {
  isa::KernelId kernel = 0;
  HwPriority priority = kDefaultPriority;

  bool operator==(const ContextLoad&) const = default;
};

/// Load on every context of the chip; disengaged = context idle (the OS
/// idle loop shuts the thread off, putting the core in ST mode — paper
/// §VI-A case 3).
struct ChipLoad {
  std::array<std::optional<ContextLoad>, kMaxContexts> contexts;

  bool operator==(const ChipLoad&) const = default;

  /// 64-bit memoisation key: a splitmix64-chained hash over the
  /// per-context (kernel, priority) words (idle contexts hash as 0) up to
  /// the last engaged context, with the prefix length folded into the
  /// seed AND the engaged-context count folded into the chain through a
  /// final splitmix64 round. The trailing fold matters: with the length
  /// only XOR-ed into the seed, a two-context load whose second word was
  /// chosen adversarially could replay the one-context chain exactly and
  /// collide across different context counts (tests/smt_sampler_test.cpp
  /// carries a constructed pair that collided under the seed-only
  /// scheme). The full load does not fit a packed 64-bit key, so the key
  /// is a hash, not an encoding: two distinct loads collide with
  /// probability ~2^-64 per pair, in which case the memoised result of
  /// the first load would be served for the second. No kernel-id range
  /// restriction applies.
  ///
  /// `shape_seed` folds the identity of the chip the load runs on into the
  /// key (see chip_shape_seed). With the default of 0 the key depends on
  /// the load alone — the historical behaviour. Samplers pass their own
  /// shape seed so that equal loads measured on differently-shaped chips
  /// (heterogeneous cluster nodes) can never share a cache entry.
  [[nodiscard]] std::uint64_t key(std::uint64_t shape_seed = 0) const;

  // The key's hash chain, exposed piecewise so callers that track the
  // per-context words themselves (mpisim::detail::Sim) can re-mix only
  // the suffix from the first changed context instead of rehashing the
  // whole prefix on every event. key() is implemented on exactly these
  // helpers, so an incremental chain produces bit-identical keys.

  /// The word key() mixes for an engaged context (never 0; idle mixes 0).
  [[nodiscard]] static constexpr std::uint64_t context_word(
      isa::KernelId kernel, HwPriority priority) {
    return (std::uint64_t{kernel} + 1) << 4 |
           static_cast<std::uint64_t>(priority);
  }
  /// Chain state before the first context word, for a `used`-long prefix.
  /// `shape_seed` (full-entropy, see chip_shape_seed) relocates the whole
  /// key space per chip shape; 0 keeps the historical load-only keys.
  [[nodiscard]] static constexpr std::uint64_t chain_seed(
      std::uint64_t used, std::uint64_t shape_seed = 0) {
    return (0x5b17'ba1a'ce00'0001ULL ^ shape_seed) ^ used;
  }
  /// Mixes one context word into the chain (full avalanche per word).
  [[nodiscard]] static constexpr std::uint64_t chain_mix(std::uint64_t state,
                                                         std::uint64_t word) {
    std::uint64_t mixed = state ^ word;
    return splitmix64(mixed);
  }
  /// Memoisation key of core `core`'s share of the load: the contexts
  /// [core * width, (core + 1) * width) hashed like key(), with the core
  /// index folded in by a full chain_mix round. Stream seeds depend on
  /// the linear context number, so equal per-core loads on different
  /// cores are different measurements. XOR-ing the core into chain_seed
  /// instead would let it cancel against the low (priority) bits of the
  /// first context word: core 0 at priority 6 would collide with core 1
  /// at priority 5 (regression: smt_sampler_test.cpp,
  /// CoreKeySeparatesCoreFromPriority).
  [[nodiscard]] std::uint64_t core_key(std::uint32_t core, std::uint32_t width,
                                       std::uint64_t shape_seed = 0) const;

  /// Final fold of the engaged-context count and prefix length.
  [[nodiscard]] static constexpr std::uint64_t chain_finish(
      std::uint64_t state, std::uint64_t engaged, std::uint64_t used) {
    std::uint64_t tail = state ^ (engaged << 32 | used);
    return splitmix64(tail);
  }
};

/// Hashes the rate-relevant shape of a chip — core count, SMT width and
/// clock frequency — into a full-entropy 64-bit seed for ChipLoad::key().
/// Folding the shape into every key makes it safe to share one SampleCache
/// between samplers whose chips differ in exactly these fields (mixed-width
/// or clock-scaled cluster nodes): equal loads on different shapes can no
/// longer collide. Chips differing in fields NOT folded here (core
/// micro-architecture, memory hierarchy) must still use separate caches.
[[nodiscard]] std::uint64_t chip_shape_seed(const ChipConfig& config);

/// Steady-state rates measured for one chip configuration.
struct SampleResult {
  /// Retired instructions per cycle, indexed by linear context number.
  std::array<double, kMaxContexts> ipc{};
  /// Retired instructions per second (ipc * chip frequency).
  std::array<double, kMaxContexts> instr_rate{};

  /// Bitwise-exact comparison (measure() is deterministic, so equal
  /// configurations produce equal bits; NaN never appears in a result).
  bool operator==(const SampleResult&) const = default;
};

struct SamplerStats {
  std::uint64_t lookups = 0;
  /// Chip loads found neither in the sampler's memo nor in the shared
  /// cache, hence measured: factorised core by core or, for
  /// full_chip_fallbacks of them, as a whole chip. A factorised miss may
  /// run no cycle-level simulation at all when the per-core memo serves
  /// every busy core (core_hits).
  std::uint64_t misses = 0;
  std::uint64_t shared_hits = 0;  ///< local misses served by a shared cache
  /// Lookups served by the sampler's own memo table. Tracked explicitly:
  /// deriving it as lookups - misses - shared_hits conflates a shared-hit
  /// promotion's later local hits with cold local hits, which the batch
  /// JSONL trailer used to report incorrectly.
  std::uint64_t local_hits = 0;
  /// Misses measured as a whole chip: the no-interference certificate
  /// failed, or the chip has one core.
  std::uint64_t full_chip_fallbacks = 0;
  /// Busy cores of factorised misses simulated alone at cycle level.
  std::uint64_t core_measurements = 0;
  /// Busy cores of factorised misses served by the per-core memo.
  std::uint64_t core_hits = 0;

  SamplerStats& operator+=(const SamplerStats& other);
  SamplerStats& operator-=(const SamplerStats& other);
};

struct SampleCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  /// Entries FIFO-evicted by a capacity limit (0 when unbounded).
  std::uint64_t evictions = 0;
  /// High-water mark of the entry count (bounds the memory footprint of
  /// long daemon-style campaigns).
  std::uint64_t peak_size = 0;
  /// Re-publishes of an existing key with a *different* SampleResult.
  /// Under the documented invariant (one cache per sampler domain,
  /// measure() pure) this is always 0; a non-zero count means a
  /// determinism bug or a cross-domain cache share — exactly what the
  /// simcheck fuzzer hunts for.
  std::uint64_t divergent = 0;

  /// Sums every counter across domains, except peak_size: independent
  /// caches peak at different moments, so the largest single-domain
  /// high-water mark is kept.
  SampleCacheStats& operator+=(const SampleCacheStats& other);

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

/// Mutex-guarded (key -> SampleResult) cache shared between samplers in
/// different threads. `measure()` is a pure function of (chip config,
/// sampler options, load) — see ThroughputSampler::measure — so every
/// sampler attached to one SampleCache MUST be built from the same
/// ChipConfig and Options; under that invariant the cached value for a key
/// is identical no matter which thread computed it, and concurrent batch
/// runs stay deterministic. Lost races merely duplicate a measurement.
class SampleCache {
 public:
  /// Returns the cached result for `key`, if any. Counts a hit or a miss.
  [[nodiscard]] std::optional<SampleResult> lookup(std::uint64_t key);

  /// Publishes a measured result. First writer wins; a lost race is
  /// dropped (both writers computed the same value). A re-publish whose
  /// value *differs* from the cached one is counted in stats().divergent
  /// and, in strict mode, fails an SMTBAL_CHECK — it means the purity
  /// invariant was violated (nondeterministic measure() or a cache shared
  /// across sampler domains). Strict mode defaults on in debug
  /// (!NDEBUG, i.e. the ASan/UBSan CI lane) and off in release.
  void publish(std::uint64_t key, const SampleResult& result);

  /// Overrides the strict divergence-checking default (see publish()).
  void set_strict(bool strict) { strict_ = strict; }

  /// Bounds the cache to `capacity` entries with deterministic
  /// insertion-order (FIFO) eviction; 0 (the default) keeps it unbounded,
  /// so existing runs are byte-identical. An evicted key that recurs is
  /// simply re-measured and re-inserted — with measure() pure, eviction
  /// affects memory and counters, never results.
  void set_capacity(std::size_t capacity);

  /// Snapshot of the hit/miss counters (totals across all attached
  /// samplers; order-dependent under concurrency — report, don't compare).
  [[nodiscard]] SampleCacheStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, SampleResult> map_;
  std::deque<std::uint64_t> insertion_order_;  ///< FIFO eviction order
  std::size_t capacity_ = 0;                   ///< 0 = unbounded
  SampleCacheStats stats_;
#ifdef NDEBUG
  bool strict_ = false;
#else
  bool strict_ = true;
#endif
};

class ThroughputSampler {
 public:
  struct Options {
    Cycle warmup_cycles = 30'000;
    Cycle window_cycles = 120'000;
    std::uint64_t seed = 0xB05Eu;

    [[nodiscard]] bool operator==(const Options&) const = default;
  };

  ThroughputSampler(ChipConfig config, Options options);
  explicit ThroughputSampler(ChipConfig config)
      : ThroughputSampler(std::move(config), Options{}) {}

  /// Returns the steady-state rates for `load`, running the cycle model on
  /// a miss. Results are memoised for the sampler's lifetime. If a shared
  /// cache is attached, local misses consult it before measuring and
  /// measured results are published back to it.
  const SampleResult& sample(const ChipLoad& load);

  /// Split form of sample() for callers that already hold the load's
  /// key() (the engine's incremental key chain): probe() answers from the
  /// local memo / shared cache without needing the ChipLoad at all
  /// (nullptr on miss), and sample_measured() runs the cycle model for a
  /// probed-and-missed load. With k = load.key(shape_seed()),
  /// sample(load) == probe(k) ?: sample_measured(k, load), counters
  /// included, so the two forms are interchangeable per lookup.
  [[nodiscard]] const SampleResult* probe(std::uint64_t key);
  const SampleResult& sample_measured(std::uint64_t key, const ChipLoad& load);

  /// The reference measurement: runs the whole chip on `load` at cycle
  /// level, bypassing every memo table, the shared cache, the per-core
  /// factorisation and the counters. sample(load) equals it bit for bit;
  /// tests and simcheck's factorisation differential check exactly that.
  [[nodiscard]] SampleResult measure_full_chip(const ChipLoad& load);

  /// Whether the certificate lets `load` be measured core by core: the
  /// chip has two or more cores and mem::cores_independent holds for the
  /// footprints of the load's streams.
  [[nodiscard]] bool factorisable(const ChipLoad& load) const;

  /// Attaches a cross-thread result cache (may be nullptr to detach). The
  /// caller must only share one cache between samplers constructed from
  /// equal ChipConfig and Options (see SampleCache). The sampler itself is
  /// NOT thread-safe — one sampler per thread, one cache per domain.
  void attach_shared_cache(std::shared_ptr<SampleCache> cache) {
    shared_cache_ = std::move(cache);
  }
  [[nodiscard]] const std::shared_ptr<SampleCache>& shared_cache() const {
    return shared_cache_;
  }

  [[nodiscard]] const SamplerStats& stats() const { return stats_; }
  [[nodiscard]] const ChipConfig& chip_config() const { return config_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// chip_shape_seed(chip_config()), precomputed. Callers that key loads
  /// themselves (mpisim::detail::Sim's incremental chain) must seed their
  /// chain with ChipLoad::chain_seed(used, shape_seed()) so probe() /
  /// sample_measured() see the same keys sample() would compute.
  [[nodiscard]] std::uint64_t shape_seed() const { return shape_seed_; }

 private:
  SampleResult measure(const ChipLoad& load);
  /// Seed of the stream measure_full_chip() binds to linear context `ctx`.
  [[nodiscard]] std::uint64_t stream_seed(std::uint32_t ctx) const {
    return options_.seed + ctx * 0x9e37u;
  }

  ChipConfig config_;
  Options options_;
  std::uint64_t shape_seed_;
  Chip chip_;
  /// The streams measure_full_chip() binds, one slot per linear context.
  std::vector<std::optional<isa::StreamGen>> streams_;
  std::unordered_map<std::uint64_t, SampleResult> cache_;
  /// Per-core memo of factorised measurements: ChipLoad::core_key() ->
  /// IPC of that core's threads_per_core() contexts.
  std::unordered_map<std::uint64_t, std::vector<double>> core_cache_;
  std::shared_ptr<SampleCache> shared_cache_;
  SamplerStats stats_;
};

}  // namespace smtbal::smt
