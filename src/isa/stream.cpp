#include "isa/stream.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/error.hpp"

namespace smtbal::isa {

StreamGen::StreamGen(const Kernel& kernel, std::uint64_t seed)
    : kernel_id_(kernel.id), params_(kernel.params), draw_(kernel.draw),
      rng_(seed) {
  params_.validate();
  SMTBAL_REQUIRE(draw_ != nullptr,
                 "StreamGen needs a kernel interned by a KernelRegistry");
  base_ = slice_base(seed);
  stride_fits_ = params_.stride_bytes < params_.working_set_bytes;
}

std::uint64_t StreamGen::slice_base(std::uint64_t seed) {
  // Give each stream its own address-space slice so that two ranks running
  // the same kernel do not share data in the cache model (MPI processes
  // have distinct address spaces).
  return (splitmix64(seed) << 20) & ~std::uint64_t{0xFFFFF};
}

AddressRange StreamGen::footprint(const Kernel& kernel, std::uint64_t seed) {
  const auto& mix = kernel.params.mix;
  if (mix[static_cast<std::size_t>(OpClass::kLoad)] <= 0.0 &&
      mix[static_cast<std::size_t>(OpClass::kStore)] <= 0.0) {
    return AddressRange{};
  }
  return AddressRange{slice_base(seed), kernel.params.working_set_bytes};
}

template <int N, int BucketBits>
void StepTable<N, BucketBits>::fill_buckets() {
  constexpr int kShift = 53 - BucketBits;
  int v = 0;
  for (std::uint64_t b = 0; b < std::size(bucket); ++b) {
    const std::uint64_t lo = b << kShift;
    const std::uint64_t hi = lo + ((std::uint64_t{1} << kShift) - 1);
    while (v < N && lo >= limit[v]) ++v;
    const bool walk = v < N && hi >= limit[v];
    bucket[b] = static_cast<std::uint8_t>(walk ? kWalk | v : v);
  }
}

std::shared_ptr<const DrawTables> DrawTables::build(
    const KernelParams& params) {
  constexpr double kScale = 0x1.0p53;
  auto tables = std::make_shared<DrawTables>();
  // Class limits are non-decreasing: every mix entry is >= 0.
  double acc = 0.0;
  for (int i = 0; i < kNumOpClasses; ++i) {
    acc += params.mix[static_cast<std::size_t>(i)];
    tables->classes.limit[i] =
        static_cast<std::uint64_t>(std::ceil(acc * kScale));
  }
  tables->classes.fill_buckets();
  if (params.mean_dep_dist <= 0.0) return tables;  // no distances drawn

  // dist(u) = clamp(ceil(log(u)/log(1-p)), 1, 64) with u = 1 - uniform()
  // is weakly decreasing in u (log is monotone, the divisor is a negative
  // constant, ceil and clamp are monotone), so it is fully described by
  // thresh[k], the largest double u mapping to >= k. Each boundary is
  // seeded from the analytic inverse exp((k-1)L) and walked double by
  // double until the probed expression flips, so the limits reproduce
  // the formula bit for bit. mean_dep_dist == 1 gives L = -inf: every u
  // maps to 1.
  const double log_one_minus_p = std::log(1.0 - 1.0 / params.mean_dep_dist);
  SMTBAL_CHECK(log_one_minus_p < 0.0);  // validate() bounds mean_dep_dist
  const auto exact = [log_one_minus_p](double u) {
    return std::clamp(std::ceil(std::log(u) / log_one_minus_p), 1.0, 64.0);
  };
  double thresh = 1.0;  // the clamp floor: every u in (0,1] maps to >= 1
  for (int k = 2; k <= 64; ++k) {
    double g = std::exp(static_cast<double>(k - 1) * log_one_minus_p);
    if (!(g > 0.0)) g = std::numeric_limits<double>::denorm_min();
    if (g > 1.0) g = 1.0;
    while (g < 1.0 && exact(g) >= static_cast<double>(k)) {
      g = std::nextafter(g, 2.0);
    }
    while (g > 0.0 && exact(g) < static_cast<double>(k)) {
      g = std::nextafter(g, 0.0);
    }
    SMTBAL_CHECK(g <= thresh);
    thresh = g;
    const auto scaled = static_cast<std::uint64_t>(std::floor(thresh * kScale));
    tables->dep_dists.limit[k - 1] = (std::uint64_t{1} << 53) - scaled;
  }
  tables->dep_dists.fill_buckets();  // limit[0] = 0: every draw is >= 1
  return tables;
}

std::uint64_t StreamGen::next_address() {
  if (params_.random_access_fraction > 0.0 &&
      rng_.chance(params_.random_access_fraction)) {
    cursor_ = rng_.below(params_.working_set_bytes);
  } else if (stride_fits_) {
    // cursor_ < working_set and stride < working_set, so the sum wraps at
    // most once: the subtract equals the modulo exactly.
    cursor_ += params_.stride_bytes;
    if (cursor_ >= params_.working_set_bytes) {
      cursor_ -= params_.working_set_bytes;
    }
  } else {
    cursor_ = (cursor_ + params_.stride_bytes) % params_.working_set_bytes;
  }
  return base_ + cursor_;
}

MicroOp StreamGen::next() {
  MicroOp op;
  op.cls = draw_->op_class(rng_() >> 11);
  // Geometric distance with the requested mean, clamped to [1, 64].
  if (params_.mean_dep_dist > 0.0 && rng_.chance(params_.dep_fraction)) {
    op.dep_dist = draw_->dep_dist(rng_() >> 11);
  }
  switch (op.cls) {
    case OpClass::kFixed:
      op.exec_latency = params_.fxu_latency;
      break;
    case OpClass::kFloat:
      op.exec_latency = params_.fpu_latency;
      break;
    case OpClass::kLoad:
    case OpClass::kStore:
      op.exec_latency = 1;  // replaced by the cache access latency
      op.address = next_address();
      break;
    case OpClass::kBranch:
      op.exec_latency = 1;
      op.mispredicted = rng_.chance(params_.branch_mispredict_rate);
      break;
  }
  ++generated_;
  return op;
}

}  // namespace smtbal::isa
