// Deterministic synthetic instruction-stream generator.
//
// Given a Kernel and a seed, StreamGen produces an endless, reproducible
// sequence of MicroOps matching the kernel's statistical description. Two
// generators with the same (kernel, seed) produce identical streams, which
// makes every experiment in the benchmark harness exactly repeatable.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "isa/instr.hpp"
#include "isa/kernel.hpp"

namespace smtbal::isa {

/// A byte range [base, base + bytes) of the simulated address space. The
/// end may wrap past 2^64: addresses are computed modulo 2^64.
struct AddressRange {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
};

/// v(r) = the number of limits <= r, for non-decreasing limits and a
/// 53-bit draw r. A bucket table indexed by r's top bits answers in one
/// load unless a limit falls inside the bucket; then the entry is kWalk |
/// the count at the bucket's start, and the compare walk finishes it.
template <int N, int BucketBits>
struct StepTable {
  static constexpr std::uint8_t kWalk = 0x80;
  std::uint64_t limit[N] = {};
  std::uint8_t bucket[1u << BucketBits] = {};

  void fill_buckets();  // from `limit`, in O(buckets + N)
  [[nodiscard]] int count(std::uint64_t r) const {
    const std::uint8_t entry = bucket[r >> (53 - BucketBits)];
    if ((entry & kWalk) == 0) return entry;
    int v = entry & ~kWalk;
    while (v < N && r >= limit[v]) ++v;
    return v;
  }
};

/// Integer forms of a kernel's class and dependency-distance draws, built
/// once per kernel (KernelRegistry::register_kernel) and shared by its
/// streams. A draw r = rng() >> 11 is exactly uniform() * 2^53 and
/// 1 - uniform() exactly (2^53 - r) * 2^-53, so each double comparison of
/// the original formulas is an exact integer one:
///   uniform() < c       iff r <  ceil(c * 2^53)
///   1 - uniform() <= t  iff r >= 2^53 - floor(t * 2^53)
struct DrawTables {
  [[nodiscard]] static std::shared_ptr<const DrawTables> build(
      const KernelParams& params);

  /// The first class i with uniform() < mix[0] + ... + mix[i], else kFixed.
  [[nodiscard]] OpClass op_class(std::uint64_t r) const {
    const int i = classes.count(r);
    return static_cast<OpClass>(i < kNumOpClasses ? i : 0);
  }
  /// The geometric dependency distance in [1, 64].
  [[nodiscard]] std::uint16_t dep_dist(std::uint64_t r) const {
    return static_cast<std::uint16_t>(dep_dists.count(r));
  }

  StepTable<kNumOpClasses, 8> classes;  ///< limit[i] for mix[0..i]
  StepTable<64, 10> dep_dists;          ///< limit[k - 1]: distance >= k
};

class StreamGen {
 public:
  StreamGen(const Kernel& kernel, std::uint64_t seed);

  /// Every address the loads and stores of StreamGen(kernel, seed) can
  /// touch: [base, base + working_set) of that stream's address-space
  /// slice, or an empty range when the kernel issues no memory ops. A pure
  /// function of (kernel, seed), so callers can reason about a stream's
  /// cache footprint without generating it.
  [[nodiscard]] static AddressRange footprint(const Kernel& kernel,
                                              std::uint64_t seed);

  /// Produces the next micro-op of the stream.
  [[nodiscard]] MicroOp next();

  [[nodiscard]] KernelId kernel_id() const { return kernel_id_; }
  [[nodiscard]] const KernelParams& params() const { return params_; }
  [[nodiscard]] InstrCount generated() const { return generated_; }

 private:
  /// Base of the address-space slice owned by the stream seeded `seed`.
  [[nodiscard]] static std::uint64_t slice_base(std::uint64_t seed);

  [[nodiscard]] std::uint64_t next_address();

  KernelId kernel_id_;
  KernelParams params_;
  std::shared_ptr<const DrawTables> draw_;
  Rng rng_;
  std::uint64_t cursor_ = 0;   // current position in the working set
  std::uint64_t base_ = 0;     // base address (distinct per stream)
  InstrCount generated_ = 0;
  bool stride_fits_ = false;   // stride < working set: subtract, not mod
};

}  // namespace smtbal::isa
