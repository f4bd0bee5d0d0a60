#include "mem/hierarchy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace smtbal::mem {

void HierarchyConfig::validate() const {
  SMTBAL_REQUIRE(num_cores > 0, "hierarchy needs at least one core");
  l1d.validate();
  l2.validate();
  l3.validate();
  SMTBAL_REQUIRE(l1d.line_bytes == l2.line_bytes && l2.line_bytes == l3.line_bytes,
                 "all cache levels must share the line size");
  SMTBAL_REQUIRE(miss_latency() <= kMaxMissLatency,
                 "miss latency l1d + l2 + l3 + memory exceeds 65535 cycles");
}

Hierarchy::Hierarchy(HierarchyConfig config)
    : config_(std::move(config)),
      l2_(config_.l2),
      l3_(config_.l3) {
  config_.validate();
  l1d_.reserve(config_.num_cores);
  for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
    CacheConfig cfg = config_.l1d;
    cfg.name = "L1D-core" + std::to_string(c);
    l1d_.emplace_back(cfg);
  }
}

AccessResult Hierarchy::access(std::uint32_t core, std::uint64_t address,
                               bool is_write) {
  SMTBAL_REQUIRE(core < l1d_.size(), "core index out of range");
  AccessResult result;
  result.latency = config_.l1d.hit_latency;

  if (l1d_[core].access(address, is_write)) {
    result.level = 1;
    return result;
  }
  result.latency += config_.l2.hit_latency;
  if (l2_.access(address, is_write)) {
    result.level = 2;
    return result;
  }
  result.latency += config_.l3.hit_latency;
  if (l3_.access(address, is_write)) {
    result.level = 3;
    return result;
  }
  result.latency += config_.memory_latency;
  result.level = 4;
  ++memory_accesses_;
  return result;
}

void Hierarchy::reset() {
  for (Cache& cache : l1d_) {
    cache.flush();
    cache.reset_stats();
  }
  l2_.flush();
  l2_.reset_stats();
  l3_.flush();
  l3_.reset_stats();
  memory_accesses_ = 0;
}

const Cache& Hierarchy::l1d(std::uint32_t core) const {
  SMTBAL_REQUIRE(core < l1d_.size(), "core index out of range");
  return l1d_[core];
}

namespace {

/// Inclusive line interval [first, last] of one core.
struct LineSpan {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::uint32_t core = 0;
};

/// Whether every set of `level` holding lines of two or more cores holds
/// at most `associativity` distinct lines. `spans` are pairwise disjoint.
bool shared_sets_fit(const CacheConfig& level,
                     const std::vector<LineSpan>& spans) {
  constexpr std::uint32_t kNoCore = 0xFFFFFFFFu;
  const std::uint64_t sets = level.num_sets();
  std::vector<std::uint64_t> lines(sets, 0);
  std::vector<std::uint32_t> owner(sets, kNoCore);
  std::vector<bool> mixed(sets, false);
  const auto add = [&](std::uint64_t set, std::uint64_t count,
                       std::uint32_t core) {
    lines[set] += count;
    if (owner[set] == kNoCore) {
      owner[set] = core;
    } else if (owner[set] != core) {
      mixed[set] = true;
    }
  };
  for (const LineSpan& span : spans) {
    // Consecutive lines map to consecutive sets (mod sets): a span of n
    // lines puts n / sets lines in every set and one more in the n % sets
    // sets following its first line's set.
    const std::uint64_t n = span.last - span.first + 1;
    if (const std::uint64_t rounds = n / sets; rounds > 0) {
      for (std::uint64_t set = 0; set < sets; ++set) {
        add(set, rounds, span.core);
      }
    }
    const std::uint64_t start = span.first & (sets - 1);
    for (std::uint64_t i = 0; i < n % sets; ++i) {
      add((start + i) & (sets - 1), 1, span.core);
    }
  }
  for (std::uint64_t set = 0; set < sets; ++set) {
    if (mixed[set] && lines[set] > level.associativity) return false;
  }
  return true;
}

}  // namespace

bool cores_independent(const HierarchyConfig& config,
                       std::span<const CoreFootprint> footprints) {
  const std::uint64_t line = config.l2.line_bytes;  // one size, see validate()
  const std::uint64_t top_line = ~std::uint64_t{0} / line;
  std::vector<LineSpan> spans;
  for (const CoreFootprint& fp : footprints) {
    if (fp.bytes == 0) continue;
    const std::uint64_t end = fp.base + (fp.bytes - 1);  // modulo 2^64
    if (end >= fp.base) {
      spans.push_back({fp.base / line, end / line, fp.core});
    } else {
      spans.push_back({fp.base / line, top_line, fp.core});
      spans.push_back({0, end / line, fp.core});
    }
  }

  // Merge each core's spans so that a line is counted once per core.
  std::sort(spans.begin(), spans.end(),
            [](const LineSpan& a, const LineSpan& b) {
              return a.core != b.core ? a.core < b.core : a.first < b.first;
            });
  std::vector<LineSpan> merged;
  for (const LineSpan& span : spans) {
    if (!merged.empty() && merged.back().core == span.core &&
        span.first <= merged.back().last) {
      merged.back().last = std::max(merged.back().last, span.last);
    } else {
      merged.push_back(span);
    }
  }
  if (merged.empty() || merged.front().core == merged.back().core) return true;

  // One core's merged spans are disjoint, so any overlap in start order is
  // a line shared between two cores.
  std::vector<LineSpan> by_start = merged;
  std::sort(by_start.begin(), by_start.end(),
            [](const LineSpan& a, const LineSpan& b) {
              return a.first < b.first;
            });
  for (std::size_t i = 1; i < by_start.size(); ++i) {
    if (by_start[i].first <= by_start[i - 1].last) return false;
  }
  return shared_sets_fit(config.l2, merged) &&
         shared_sets_fit(config.l3, merged);
}

}  // namespace smtbal::mem
