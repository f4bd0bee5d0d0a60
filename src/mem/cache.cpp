#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace smtbal::mem {

namespace {

/// Target size of one committed block of tag storage.
constexpr std::uint64_t kBlockBytes = 4096;

}  // namespace

void CacheConfig::validate() const {
  SMTBAL_REQUIRE(line_bytes > 0 && std::has_single_bit(line_bytes),
                 "cache line size must be a power of two");
  SMTBAL_REQUIRE(associativity > 0, "associativity must be positive");
  SMTBAL_REQUIRE(size_bytes % (static_cast<std::uint64_t>(line_bytes) *
                               associativity) ==
                     0,
                 "cache size must be a multiple of line*assoc");
  SMTBAL_REQUIRE(std::has_single_bit(num_sets()),
                 "number of sets must be a power of two");
}

Cache::Cache(CacheConfig config) : config_(std::move(config)) {
  config_.validate();
  const std::uint64_t sets = config_.num_sets();
  ways_ = config_.associativity;
  line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
  set_shift_ = static_cast<unsigned>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  const std::uint64_t set_bytes = sizeof(Line) * ways_;
  const std::uint64_t block_sets = std::min(
      sets, std::bit_floor(std::max<std::uint64_t>(1, kBlockBytes / set_bytes)));
  block_shift_ = static_cast<unsigned>(std::countr_zero(block_sets));
  block_mask_ = block_sets - 1;
  blocks_.resize(sets >> block_shift_);
}

const Cache::Line* Cache::find_set(std::uint64_t set) const {
  const Line* block = blocks_[set >> block_shift_].get();
  return block == nullptr ? nullptr : block + (set & block_mask_) * ways_;
}

Cache::Line* Cache::fill_set(std::uint64_t set) {
  std::unique_ptr<Line[]>& block = blocks_[set >> block_shift_];
  if (block == nullptr) [[unlikely]] {
    block = std::make_unique<Line[]>((block_mask_ + 1) * ways_);
    ++committed_;
  }
  return block.get() + (set & block_mask_) * ways_;
}

bool Cache::access(std::uint64_t address, bool is_write) {
  const std::uint64_t line_number = address >> line_shift_;
  const std::uint64_t tag = line_number >> set_shift_;
  Line* const begin = fill_set(line_number & set_mask_);
  Line* const end = begin + ways_;
  const std::uint64_t dirty = is_write ? 1 : 0;

  // One pass finds a hit or the victim: the first invalid way, else the
  // LRU way. Ranking invalid ways as 0 makes that the first minimum, as
  // valid stamps are at least valid_floor_ >= 2 and pairwise distinct.
  Line* victim = begin;
  std::uint64_t victim_rank = ~std::uint64_t{0};
  for (Line* line = begin; line != end; ++line) {
    const bool valid = line->stamp >= valid_floor_;
    if (valid && line->tag == tag) {
      line->stamp = (++lru_clock_ << 1) | (line->stamp & 1) | dirty;
      ++stats_.hits;
      return true;
    }
    const std::uint64_t rank = valid ? line->stamp : 0;
    if (rank < victim_rank) {
      victim_rank = rank;
      victim = line;
    }
  }

  ++stats_.misses;
  if (victim->stamp >= valid_floor_) {
    ++stats_.evictions;
    if ((victim->stamp & 1) != 0) ++stats_.dirty_evictions;
  }
  victim->tag = tag;
  victim->stamp = (++lru_clock_ << 1) | dirty;
  return false;
}

bool Cache::probe(std::uint64_t address) const {
  const std::uint64_t line_number = address >> line_shift_;
  const std::uint64_t tag = line_number >> set_shift_;
  const Line* const begin = find_set(line_number & set_mask_);
  if (begin == nullptr) return false;
  return std::any_of(begin, begin + ways_, [&](const Line& line) {
    return line.tag == tag && line.stamp >= valid_floor_;
  });
}

void Cache::flush() { valid_floor_ = (lru_clock_ + 1) << 1; }

std::uint64_t Cache::valid_lines() const {
  const std::uint64_t block_lines = (block_mask_ + 1) * ways_;
  std::uint64_t count = 0;
  for (const std::unique_ptr<Line[]>& block : blocks_) {
    if (block == nullptr) continue;
    count += static_cast<std::uint64_t>(
        std::count_if(block.get(), block.get() + block_lines,
                      [&](const Line& line) { return line.stamp >= valid_floor_; }));
  }
  return count;
}

}  // namespace smtbal::mem
