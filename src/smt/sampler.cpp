#include "smt/sampler.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "isa/stream.hpp"
#include "mem/hierarchy.hpp"

namespace smtbal::smt {

std::uint64_t chip_shape_seed(const ChipConfig& config) {
  // splitmix64-chain the rate-relevant shape fields. The result has full
  // avalanche, so XOR-ing it into ChipLoad::chain_seed relocates the key
  // space without weakening the per-load hash.
  std::uint64_t state = ChipLoad::chain_mix(0xc1e0'5eed'0000'0001ULL,
                                            config.num_cores);
  state = ChipLoad::chain_mix(state, config.threads_per_core());
  state = ChipLoad::chain_mix(
      state, std::bit_cast<std::uint64_t>(config.frequency_ghz));
  return state;
}

std::uint64_t ChipLoad::key(std::uint64_t shape_seed) const {
  // splitmix64-chained hash over the per-context (kernel, priority) words.
  // kMaxContexts x ~36 significant bits do not fit a packed 64-bit key, so we
  // mix instead; collisions are ~2^-64 per pair of configurations.
  //
  // Only the prefix up to the last engaged context is hashed — this is the
  // hot path of every rate refresh, and real chips engage far fewer than
  // kMaxContexts contexts. The prefix length is XOR-ed into the seed AND,
  // together with the engaged-context count, folded into the chain by a
  // final splitmix64 round: a seed-only length fold can be cancelled by an
  // adversarial trailing word, letting a longer load replay a shorter
  // load's chain exactly (regression: smt_sampler_test.cpp,
  // KeyCollisionAcrossContextCounts).
  std::size_t used = contexts.size();
  while (used > 0 && !contexts[used - 1].has_value()) --used;
  std::uint64_t engaged = 0;
  std::uint64_t state = chain_seed(used, shape_seed);
  for (std::size_t ctx = 0; ctx < used; ++ctx) {
    const auto& slot = contexts[ctx];
    std::uint64_t word = 0;
    if (slot.has_value()) {
      ++engaged;
      word = context_word(slot->kernel, slot->priority);
    }
    state = chain_mix(state, word);
  }
  return chain_finish(state, engaged, used);
}

std::uint64_t ChipLoad::core_key(std::uint32_t core, std::uint32_t width,
                                 std::uint64_t shape_seed) const {
  const std::size_t first = std::size_t{core} * width;
  SMTBAL_REQUIRE(width > 0 && first + width <= contexts.size(),
                 "core outside the load");
  std::uint64_t engaged = 0;
  std::uint64_t state = chain_mix(chain_seed(width, shape_seed), core);
  for (std::size_t ctx = first; ctx < first + width; ++ctx) {
    const auto& slot = contexts[ctx];
    std::uint64_t word = 0;
    if (slot.has_value()) {
      ++engaged;
      word = context_word(slot->kernel, slot->priority);
    }
    state = chain_mix(state, word);
  }
  return chain_finish(state, engaged, width);
}

SamplerStats& SamplerStats::operator+=(const SamplerStats& other) {
  lookups += other.lookups;
  misses += other.misses;
  shared_hits += other.shared_hits;
  local_hits += other.local_hits;
  full_chip_fallbacks += other.full_chip_fallbacks;
  core_measurements += other.core_measurements;
  core_hits += other.core_hits;
  return *this;
}

SamplerStats& SamplerStats::operator-=(const SamplerStats& other) {
  lookups -= other.lookups;
  misses -= other.misses;
  shared_hits -= other.shared_hits;
  local_hits -= other.local_hits;
  full_chip_fallbacks -= other.full_chip_fallbacks;
  core_measurements -= other.core_measurements;
  core_hits -= other.core_hits;
  return *this;
}

ThroughputSampler::ThroughputSampler(ChipConfig config, Options options)
    : config_(std::move(config)),
      options_(options),
      shape_seed_(chip_shape_seed(config_)),
      chip_(config_),
      streams_(config_.num_contexts()) {
  if (config_.num_contexts() > kMaxContexts) {
    throw InvalidArgument(
        "chip has " + std::to_string(config_.num_contexts()) +
        " contexts but the sampler supports at most " +
        std::to_string(kMaxContexts) +
        " (smt::kMaxContexts) per sampling domain; model larger machines "
        "as cluster nodes");
  }
  SMTBAL_REQUIRE(options_.window_cycles > 0, "window must be positive");
}

std::optional<SampleResult> SampleCache::lookup(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = map_.find(key); it != map_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return std::nullopt;
}

void SampleCache::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  if (capacity_ == 0) return;
  while (map_.size() > capacity_) {
    map_.erase(insertion_order_.front());
    insertion_order_.pop_front();
    ++stats_.evictions;
  }
}

std::size_t SampleCache::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void SampleCache::publish(std::uint64_t key, const SampleResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = map_.emplace(key, result);
  if (inserted) {
    ++stats_.inserts;
    insertion_order_.push_back(key);
    if (capacity_ != 0 && map_.size() > capacity_) {
      map_.erase(insertion_order_.front());
      insertion_order_.pop_front();
      ++stats_.evictions;
    }
    // Resident high-water mark, recorded after any eviction: a bounded
    // cache never reports a peak above its capacity.
    stats_.peak_size = std::max<std::uint64_t>(stats_.peak_size, map_.size());
    return;
  }
  // First writer wins — but a re-publish is only legal when both writers
  // computed the same bits. A divergent re-publish means measure() was
  // not pure for this key (determinism bug) or the cache is shared across
  // sampler domains; keep the first value, count the violation, and fail
  // loudly in strict builds.
  if (!(it->second == result)) {
    ++stats_.divergent;
    if (strict_) {
      SMTBAL_CHECK_MSG(false,
                       "SampleCache::publish: divergent result re-published "
                       "for an existing key — nondeterministic measurement "
                       "or a cache shared across sampler domains");
    }
  }
}

SampleCacheStats SampleCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t SampleCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

const SampleResult& ThroughputSampler::sample(const ChipLoad& load) {
  const std::uint64_t key = load.key(shape_seed_);
  if (const SampleResult* hit = probe(key)) return *hit;
  return sample_measured(key, load);
}

const SampleResult* ThroughputSampler::probe(std::uint64_t key) {
  ++stats_.lookups;
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++stats_.local_hits;
    return &it->second;
  }
  if (shared_cache_ != nullptr) {
    if (std::optional<SampleResult> shared = shared_cache_->lookup(key)) {
      ++stats_.shared_hits;
      auto [it, inserted] = cache_.emplace(key, *shared);
      SMTBAL_CHECK(inserted);
      return &it->second;
    }
  }
  return nullptr;
}

const SampleResult& ThroughputSampler::sample_measured(std::uint64_t key,
                                                       const ChipLoad& load) {
  ++stats_.misses;
  auto [it, inserted] = cache_.emplace(key, measure(load));
  SMTBAL_CHECK(inserted);
  if (shared_cache_ != nullptr) shared_cache_->publish(key, it->second);
  return it->second;
}

bool ThroughputSampler::factorisable(const ChipLoad& load) const {
  if (config_.num_cores < 2) return false;
  const auto& registry = isa::KernelRegistry::instance();
  std::vector<mem::CoreFootprint> footprints;
  for (std::uint32_t ctx = 0; ctx < config_.num_contexts(); ++ctx) {
    const auto& slot = load.contexts[ctx];
    if (!slot.has_value()) continue;
    const isa::AddressRange range =
        isa::StreamGen::footprint(registry.get(slot->kernel), stream_seed(ctx));
    footprints.push_back(mem::CoreFootprint{
        config_.cpu(ctx).core.value(), range.base, range.bytes});
  }
  return mem::cores_independent(config_.memory, footprints);
}

SampleResult ThroughputSampler::measure(const ChipLoad& load) {
  if (!factorisable(load)) {
    ++stats_.full_chip_fallbacks;
    return measure_full_chip(load);
  }
  // The certificate guarantees that each core sees the same cache outcomes
  // alone as beside the others, so the chip's result is the union of the
  // per-core results. Idle cores report zero rates without running.
  const std::uint32_t width = config_.threads_per_core();
  SampleResult result;
  for (std::uint32_t core = 0; core < config_.num_cores; ++core) {
    const std::size_t first = std::size_t{core} * width;
    const auto begin = load.contexts.begin() + first;
    const auto end = begin + width;
    if (std::none_of(begin, end,
                     [](const auto& slot) { return slot.has_value(); })) {
      continue;
    }
    const std::uint64_t key = load.core_key(core, width, shape_seed_);
    auto it = core_cache_.find(key);
    if (it != core_cache_.end()) {
      ++stats_.core_hits;
    } else {
      ++stats_.core_measurements;
      ChipLoad alone;
      std::copy(begin, end, alone.contexts.begin() + first);
      const SampleResult measured = measure_full_chip(alone);
      const auto ipc = measured.ipc.begin() + first;
      it = core_cache_.emplace(key, std::vector<double>(ipc, ipc + width))
               .first;
    }
    for (std::size_t ctx = first; ctx < first + width; ++ctx) {
      result.ipc[ctx] = it->second[ctx - first];
      result.instr_rate[ctx] = result.ipc[ctx] * config_.frequency_hz();
    }
  }
  return result;
}

SampleResult ThroughputSampler::measure_full_chip(const ChipLoad& load) {
  chip_.reset();

  // Build one stream per active context, in place. Seeds depend on the
  // context number only, so the same configuration always measures
  // identically.
  const auto& registry = isa::KernelRegistry::instance();
  for (std::uint32_t ctx = 0; ctx < config_.num_contexts(); ++ctx) {
    const CpuId cpu = config_.cpu(ctx);
    const auto& slot = load.contexts[ctx];
    if (slot.has_value()) {
      chip_.bind_stream(cpu, &streams_[ctx].emplace(registry.get(slot->kernel),
                                                    stream_seed(ctx)));
      chip_.set_priority(cpu, slot->priority);
    } else {
      chip_.bind_stream(cpu, nullptr);
      // Idle context: the OS idle loop shuts the thread off (ST mode).
      chip_.set_priority(cpu, HwPriority::kOff);
    }
  }

  chip_.run(options_.warmup_cycles);
  for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
    chip_.core(CoreId{c}).reset_perf();
  }
  chip_.run(options_.window_cycles);

  SampleResult result;
  for (std::uint32_t ctx = 0; ctx < config_.num_contexts(); ++ctx) {
    const CpuId cpu = config_.cpu(ctx);
    result.ipc[ctx] = chip_.perf(cpu).ipc(options_.window_cycles);
    result.instr_rate[ctx] = result.ipc[ctx] * config_.frequency_hz();
  }

  // Unbind the streams: the next measurement re-creates them in place.
  for (std::uint32_t ctx = 0; ctx < config_.num_contexts(); ++ctx) {
    chip_.bind_stream(config_.cpu(ctx), nullptr);
  }
  return result;
}

}  // namespace smtbal::smt
