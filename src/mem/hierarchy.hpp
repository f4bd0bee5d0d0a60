// POWER5-like memory hierarchy: private per-core L1D, shared L2 and L3,
// flat main memory. The hierarchy returns the total access latency for a
// load/store, which the SMT core uses as the op's execution latency.
//
// POWER5 reference points (Sinharoy et al., IBM JRD 49(4/5)):
//   L1D 32 KiB 4-way/core, L2 1.875 MiB 10-way shared, L3 36 MiB victim
//   (off-chip, shared), memory ~ hundreds of cycles. We use round
//   power-of-two capacities; latencies are load-to-use approximations.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mem/cache.hpp"

namespace smtbal::mem {

struct HierarchyConfig {
  std::uint32_t num_cores = 2;

  CacheConfig l1d{.name = "L1D",
                  .size_bytes = 32 * 1024,
                  .line_bytes = 128,
                  .associativity = 4,
                  .hit_latency = 2};
  CacheConfig l2{.name = "L2",
                 .size_bytes = 2 * 1024 * 1024,
                 .line_bytes = 128,
                 .associativity = 8,
                 .hit_latency = 13};
  CacheConfig l3{.name = "L3",
                 .size_bytes = 32 * 1024 * 1024,
                 .line_bytes = 128,
                 .associativity = 8,
                 .hit_latency = 87};
  std::uint32_t memory_latency = 230;

  /// Cap on miss_latency(), which sizes the core's wake wheel.
  static constexpr std::uint64_t kMaxMissLatency = 65535;
  /// l1d + l2 + l3 + memory: the longest access the hierarchy returns.
  [[nodiscard]] std::uint64_t miss_latency() const {
    return std::uint64_t{l1d.hit_latency} + l2.hit_latency + l3.hit_latency +
           memory_latency;
  }

  void validate() const;
  [[nodiscard]] bool operator==(const HierarchyConfig&) const = default;
};

/// Result of a memory access: total load-to-use latency plus the level
/// that served it (1 = L1D, 2 = L2, 3 = L3, 4 = memory).
struct AccessResult {
  std::uint32_t latency = 0;
  int level = 1;
};

class Hierarchy {
 public:
  explicit Hierarchy(HierarchyConfig config);

  /// Performs a data access from `core`. Fills all levels on the way
  /// (inclusive fill), so subsequent accesses hit closer to the core.
  AccessResult access(std::uint32_t core, std::uint64_t address, bool is_write);

  /// Drops all cached contents and statistics (fresh sampling window).
  void reset();

  [[nodiscard]] const Cache& l1d(std::uint32_t core) const;
  [[nodiscard]] const Cache& l2() const { return l2_; }
  [[nodiscard]] const Cache& l3() const { return l3_; }
  [[nodiscard]] const HierarchyConfig& config() const { return config_; }

  /// Accesses that reached main memory.
  [[nodiscard]] std::uint64_t memory_accesses() const { return memory_accesses_; }

 private:
  HierarchyConfig config_;
  std::vector<Cache> l1d_;
  Cache l2_;
  Cache l3_;
  std::uint64_t memory_accesses_ = 0;
};

/// Bytes [base, base + bytes) that the contexts of one core may touch (the
/// end wraps modulo 2^64, like the addresses themselves).
struct CoreFootprint {
  std::uint32_t core = 0;
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
};

/// Static no-interference certificate for the shared levels: true when no
/// access of one core can change the hit/miss outcome of another core's
/// access, so that each core run alone on the hierarchy sees exactly the
/// L1/L2/L3 outcomes it sees running beside the others. It holds when
///   * no cache line lies in the footprints of two different cores, and
///   * every L2 or L3 set that receives lines from two or more cores
///     receives at most `associativity` distinct lines in total, so it
///     never evicts.
/// A set fed by one core alone sees the same access sequence either way,
/// and true LRU compares only the relative order of that core's accesses.
/// Overlapping footprints of one core are counted once. Footprints must
/// cover every address the cores can touch; the test is conservative (a
/// false result only means "not proven").
[[nodiscard]] bool cores_independent(const HierarchyConfig& config,
                                     std::span<const CoreFootprint> footprints);

}  // namespace smtbal::mem
