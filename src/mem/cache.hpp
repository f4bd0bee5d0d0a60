// Set-associative cache model with true-LRU replacement.
//
// The model tracks tags only (no data): the simulator needs hit/miss
// decisions and latencies, not values. Write-back/write-allocate policy;
// dirty evictions are counted but (as on real hardware) their write-back
// happens off the load's critical path, so they do not add latency.
//
// Tag storage is committed lazily, one block of sets at a time on the
// first fill into it, and flush() is O(1): a line is valid iff its LRU
// stamp was taken after the last flush. See DESIGN.md §17.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace smtbal::mem {

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 128;   // POWER5 L1 line
  std::uint32_t associativity = 4;
  std::uint32_t hit_latency = 2;    // cycles

  void validate() const;
  [[nodiscard]] bool operator==(const CacheConfig&) const = default;
  [[nodiscard]] std::uint64_t num_sets() const {
    return size_bytes / (static_cast<std::uint64_t>(line_bytes) * associativity);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  [[nodiscard]] std::uint64_t accesses() const { return hits + misses; }
  [[nodiscard]] double miss_rate() const {
    return accesses() ? static_cast<double>(misses) / static_cast<double>(accesses())
                      : 0.0;
  }
};

class Cache {
 public:
  explicit Cache(CacheConfig config);

  /// Looks up `address`; on miss, fills the line (evicting LRU if needed).
  /// Returns true on hit. `is_write` marks the line dirty.
  bool access(std::uint64_t address, bool is_write);

  /// Lookup without fill or LRU update (used by tests and the hierarchy's
  /// inclusive-content probes).
  [[nodiscard]] bool probe(std::uint64_t address) const;

  /// Invalidates every line (e.g. between sampling windows) in O(1): tag
  /// storage is neither touched nor released.
  void flush();

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Number of currently valid lines (for occupancy tests).
  [[nodiscard]] std::uint64_t valid_lines() const;

  /// Blocks of tag storage committed so far: a block holds about 4 KiB
  /// of consecutive sets and is committed by the first fill into it.
  [[nodiscard]] std::size_t committed_blocks() const { return committed_; }

 private:
  /// One way of a set. `stamp` is (LRU clock << 1 | dirty); the clock
  /// never resets, so stamps order lines by recency and a line is valid
  /// iff stamp >= valid_floor_.
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
  };

  /// The ways of `set`, or nullptr while its block is uncommitted.
  [[nodiscard]] const Line* find_set(std::uint64_t set) const;
  /// The ways of `set`, committing its block on first use.
  [[nodiscard]] Line* fill_set(std::uint64_t set);

  CacheConfig config_;
  std::uint32_t ways_ = 0;
  unsigned line_shift_ = 0;      // log2(line_bytes)
  unsigned set_shift_ = 0;       // log2(num_sets)
  std::uint64_t set_mask_ = 0;   // num_sets - 1
  unsigned block_shift_ = 0;     // log2(sets per block)
  std::uint64_t block_mask_ = 0; // sets per block - 1
  std::vector<std::unique_ptr<Line[]>> blocks_;
  std::size_t committed_ = 0;
  std::uint64_t lru_clock_ = 0;
  /// Smallest stamp of a valid line: (clock at the last flush + 1) << 1.
  std::uint64_t valid_floor_ = 2;
  CacheStats stats_;
};

}  // namespace smtbal::mem
