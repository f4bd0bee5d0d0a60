// StreamGen's integer draw tables against the double formulas they
// replace: whole streams op by op for every builtin kernel and a set of
// adversarial parameters, and each table limit probed directly at the
// draws on either side of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "isa/kernel.hpp"
#include "isa/stream.hpp"

namespace smtbal::isa {
namespace {

/// The generator as it was before the integer tables: class by a compare
/// loop over the cumulative mix, dependency distance by a walk over the
/// probed double thresholds of the geometric quantile (or the quantile
/// formula itself when log(1 - p) is not finite and negative).
class ReferenceStreamGen {
 public:
  ReferenceStreamGen(const KernelParams& params, std::uint64_t seed)
      : params_(params), rng_(seed) {
    double acc = 0.0;
    for (int i = 0; i < kNumOpClasses; ++i) {
      acc += params_.mix[static_cast<std::size_t>(i)];
      cum_mix_[i] = acc;
    }
    std::uint64_t s = seed;
    base_ = (splitmix64(s) << 20) & ~std::uint64_t{0xFFFFF};
    if (params_.mean_dep_dist > 0.0) {
      log_one_minus_p_ = std::log(1.0 - 1.0 / params_.mean_dep_dist);
      if (std::isfinite(log_one_minus_p_) && log_one_minus_p_ < 0.0) {
        build_dep_table();
      }
    }
  }

  MicroOp next() {
    MicroOp op;
    op.cls = class_of(rng_.uniform());
    op.dep_dist = pick_dep_dist();
    switch (op.cls) {
      case OpClass::kFixed: op.exec_latency = params_.fxu_latency; break;
      case OpClass::kFloat: op.exec_latency = params_.fpu_latency; break;
      case OpClass::kLoad:
      case OpClass::kStore:
        op.exec_latency = 1;
        op.address = next_address();
        break;
      case OpClass::kBranch:
        op.exec_latency = 1;
        op.mispredicted = rng_.chance(params_.branch_mispredict_rate);
        break;
    }
    return op;
  }

  [[nodiscard]] OpClass class_of(double u) const {
    for (int i = 0; i < kNumOpClasses; ++i) {
      if (u < cum_mix_[i]) return static_cast<OpClass>(i);
    }
    return OpClass::kFixed;
  }

  [[nodiscard]] std::uint16_t dep_dist_of(double u) const {
    if (dep_table_valid_) {
      std::uint16_t dist = 1;
      while (dist < 64 && u <= dep_thresh_[dist + 1]) ++dist;
      return dist;
    }
    return static_cast<std::uint16_t>(
        std::clamp(std::ceil(std::log(u) / log_one_minus_p_), 1.0, 64.0));
  }

 private:
  void build_dep_table() {
    const auto exact = [this](double u) {
      return std::clamp(std::ceil(std::log(u) / log_one_minus_p_), 1.0, 64.0);
    };
    dep_thresh_[1] = 1.0;
    for (int k = 2; k <= 64; ++k) {
      double g = std::exp(static_cast<double>(k - 1) * log_one_minus_p_);
      if (!(g > 0.0)) g = std::numeric_limits<double>::denorm_min();
      if (g > 1.0) g = 1.0;
      while (g < 1.0 && exact(g) >= static_cast<double>(k)) {
        g = std::nextafter(g, 2.0);
      }
      while (g > 0.0 && exact(g) < static_cast<double>(k)) {
        g = std::nextafter(g, 0.0);
      }
      dep_thresh_[k] = g;
    }
    dep_table_valid_ = true;
  }

  std::uint16_t pick_dep_dist() {
    if (params_.mean_dep_dist <= 0.0 || !rng_.chance(params_.dep_fraction)) {
      return 0;
    }
    return dep_dist_of(1.0 - rng_.uniform());
  }

  std::uint64_t next_address() {
    if (params_.random_access_fraction > 0.0 &&
        rng_.chance(params_.random_access_fraction)) {
      cursor_ = rng_.below(params_.working_set_bytes);
    } else {
      cursor_ = (cursor_ + params_.stride_bytes) % params_.working_set_bytes;
    }
    return base_ + cursor_;
  }

  KernelParams params_;
  Rng rng_;
  std::uint64_t cursor_ = 0;
  std::uint64_t base_ = 0;
  double cum_mix_[kNumOpClasses] = {};
  double log_one_minus_p_ = 0.0;
  bool dep_table_valid_ = false;
  double dep_thresh_[65] = {};
};

std::vector<KernelParams> adversarial_kernels() {
  std::vector<KernelParams> kernels;
  const auto add = [&](std::string name, auto&& tweak) {
    KernelParams k;
    k.name = std::move(name);
    tweak(k);
    kernels.push_back(k);
  };
  add("tiny_class_mass", [](KernelParams& k) {
    k.mix = {0.4, 1e-12, 0.3, 0.2, 0.1 - 1e-12};
  });
  add("mix_ends_below_one", [](KernelParams& k) {
    k.mix = {0.5, 0.1, 0.2, 0.1, 0.1 - 5e-7};
  });
  add("mix_ends_above_one", [](KernelParams& k) {
    k.mix = {0.5, 0.1, 0.2, 0.1, 0.1 + 5e-7};
  });
  add("single_class", [](KernelParams& k) { k.mix = {0, 0, 0, 0, 1.0}; });
  add("dep_dist_barely_above_one", [](KernelParams& k) {
    k.mean_dep_dist = 1.0000001;
    k.dep_fraction = 1.0;
  });
  add("dep_dist_exactly_one", [](KernelParams& k) {
    k.mean_dep_dist = 1.0;
    k.dep_fraction = 1.0;
  });
  add("dep_dist_40", [](KernelParams& k) {
    k.mean_dep_dist = 40.0;
    k.dep_fraction = 1.0;
  });
  add("dep_dist_huge", [](KernelParams& k) {
    k.mean_dep_dist = 1e9;
    k.dep_fraction = 1.0;
  });
  add("no_dependencies", [](KernelParams& k) { k.dep_fraction = 0.0; });
  add("no_dep_dist", [](KernelParams& k) { k.mean_dep_dist = 0.0; });
  return kernels;
}

std::vector<KernelParams> all_kernels() {
  std::vector<KernelParams> kernels = builtin_kernels();
  for (const KernelParams& k : adversarial_kernels()) kernels.push_back(k);
  return kernels;
}

const KernelRegistry& registry() {
  static const KernelRegistry r = [] {
    KernelRegistry reg;
    for (const KernelParams& k : all_kernels()) reg.register_kernel(k);
    return reg;
  }();
  return r;
}

constexpr std::uint64_t kOne = std::uint64_t{1} << 53;

double uniform_of(std::uint64_t r) { return static_cast<double>(r) * 0x1.0p-53; }

class StreamDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamDifferential, StreamsMatchTheDoubleFormulasOpByOp) {
  const Kernel& kernel = registry().by_name(GetParam());
  for (const std::uint64_t seed : {1ULL, 0x5EEDULL, 0xFFFF'FFFF'0000ULL}) {
    StreamGen stream(kernel, seed);
    ReferenceStreamGen reference(kernel.params, seed);
    for (int i = 0; i < 1'000'000; ++i) {
      const MicroOp got = stream.next();
      const MicroOp want = reference.next();
      ASSERT_TRUE(got.cls == want.cls && got.dep_dist == want.dep_dist &&
                  got.exec_latency == want.exec_latency &&
                  got.address == want.address &&
                  got.mispredicted == want.mispredicted)
          << "seed " << seed << " op " << i;
    }
  }
}

TEST_P(StreamDifferential, EveryLimitMatchesTheDoubleFormulasAtItsEdges) {
  const Kernel& kernel = registry().by_name(GetParam());
  const DrawTables& tables = *kernel.draw;
  const ReferenceStreamGen reference(kernel.params, 1);

  // Every draw next to a limit, next to a bucket edge, and at both ends.
  std::vector<std::uint64_t> probes = {0, 1, kOne - 2, kOne - 1};
  const auto around = [&](std::uint64_t x) {
    for (std::uint64_t r = x == 0 ? 0 : x - 1; r <= x + 1 && r < kOne; ++r) {
      probes.push_back(r);
    }
  };
  for (const std::uint64_t limit : tables.classes.limit) around(limit);
  for (std::uint64_t b = 0; b < std::size(tables.classes.bucket); ++b) {
    around(b << (53 - 8));
  }
  for (const std::uint64_t r : probes) {
    ASSERT_EQ(tables.op_class(r), reference.class_of(uniform_of(r)))
        << "class draw " << r;
  }

  if (kernel.params.mean_dep_dist <= 0.0) return;
  probes = {0, 1, kOne - 2, kOne - 1};
  for (const std::uint64_t limit : tables.dep_dists.limit) around(limit);
  for (std::uint64_t b = 0; b < std::size(tables.dep_dists.bucket); ++b) {
    around(b << (53 - 10));
  }
  for (const std::uint64_t r : probes) {
    ASSERT_EQ(tables.dep_dist(r), reference.dep_dist_of(1.0 - uniform_of(r)))
        << "dependency draw " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, StreamDifferential,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const KernelParams& k : all_kernels()) {
                             names.push_back(k.name);
                           }
                           return names;
                         }()),
                         [](const auto& info) { return info.param; });

TEST(DrawTables, AreSharedByEveryStreamOfAKernel) {
  const Kernel& kernel = registry().by_name(kKernelHpcMixed);
  ASSERT_NE(kernel.draw, nullptr);
  const long owners = kernel.draw.use_count();
  {
    StreamGen a(kernel, 1);
    StreamGen b(kernel, 2);
    EXPECT_EQ(kernel.draw.use_count(), owners + 2);
  }
  EXPECT_EQ(kernel.draw.use_count(), owners);
}

TEST(DrawTables, MostBucketsAnswerWithoutAWalk) {
  for (const KernelParams& params : builtin_kernels()) {
    const DrawTables tables = *DrawTables::build(params);
    const auto walks = [](const auto& buckets) {
      return std::count_if(std::begin(buckets), std::end(buckets),
                           [](std::uint8_t e) { return e >= 0x80; });
    };
    // At most one walk bucket per limit.
    EXPECT_LE(walks(tables.classes.bucket), kNumOpClasses) << params.name;
    EXPECT_LE(walks(tables.dep_dists.bucket), 64) << params.name;
  }
}

}  // namespace
}  // namespace smtbal::isa
