#include "isa/stream.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace smtbal::isa {

StreamGen::StreamGen(const Kernel& kernel, std::uint64_t seed)
    : kernel_id_(kernel.id), params_(kernel.params), rng_(seed) {
  params_.validate();
  double acc = 0.0;
  for (int i = 0; i < kNumOpClasses; ++i) {
    acc += params_.mix[static_cast<std::size_t>(i)];
    cum_mix_[i] = acc;
  }
  base_ = slice_base(seed);
  if (params_.mean_dep_dist > 0.0) {
    const double p = 1.0 / params_.mean_dep_dist;
    log_one_minus_p_ = std::log(1.0 - p);
    // mean_dep_dist <= 1 degenerates (log_one_minus_p_ is -inf or NaN);
    // those configurations keep the original per-call formula.
    if (std::isfinite(log_one_minus_p_) && log_one_minus_p_ < 0.0) {
      build_dep_table();
    }
  }
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

void StreamGen::build_dep_table() {
  const auto exact = [this](double u) {
    return std::clamp(std::ceil(std::log(u) / log_one_minus_p_), 1.0, 64.0);
  };
  // dist(u) = clamp(ceil(log(u)/log(1-p))) is weakly decreasing in u (log
  // is monotone, the divisor is a negative constant, ceil and clamp are
  // monotone), so it is fully described by the largest u mapping to >= k
  // for each k. Seed each boundary from the analytic inverse exp((k-1)L)
  // and walk double-by-double until the probed expression flips.
  dep_thresh_[1] = 1.0;  // the clamp floor: every u in (0,1] maps to >= 1
  for (int k = 2; k <= 64; ++k) {
    double g =
        std::exp(static_cast<double>(k - 1) * log_one_minus_p_);
    if (!(g > 0.0)) g = std::numeric_limits<double>::denorm_min();
    if (g > 1.0) g = 1.0;
    while (g < 1.0 && exact(g) >= static_cast<double>(k)) {
      g = std::nextafter(g, 2.0);
    }
    while (g > 0.0 && exact(g) < static_cast<double>(k)) {
      g = std::nextafter(g, 0.0);
    }
    SMTBAL_CHECK(g <= dep_thresh_[k - 1]);
    dep_thresh_[k] = g;
  }
  dep_table_valid_ = true;
}

OpClass StreamGen::pick_class() {
  const double u = rng_.uniform();
  for (int i = 0; i < kNumOpClasses; ++i) {
    if (u < cum_mix_[i]) return static_cast<OpClass>(i);
  }
  return OpClass::kFixed;
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

std::uint16_t StreamGen::pick_dep_dist() {
  if (params_.mean_dep_dist <= 0.0 || !rng_.chance(params_.dep_fraction)) {
    return 0;
  }
  // Geometric distribution with the requested mean, clamped to [1, 64].
  const double u = 1.0 - rng_.uniform();
  if (dep_table_valid_) {
    // Expected scan length is the mean distance itself (small for every
    // shipped kernel); each step is one compare against a cached boundary.
    std::uint16_t dist = 1;
    while (dist < 64 && u <= dep_thresh_[dist + 1]) ++dist;
    return dist;
  }
  const auto dist = static_cast<std::uint16_t>(
      std::clamp(std::ceil(std::log(u) / log_one_minus_p_), 1.0, 64.0));
  return dist;
}

MicroOp StreamGen::next() {
  MicroOp op;
  op.cls = pick_class();
  op.dep_dist = pick_dep_dist();
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
