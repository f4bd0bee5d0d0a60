#include "isa/stream.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "isa/kernel.hpp"

namespace smtbal::isa {
namespace {

const Kernel& kernel(std::string_view name) {
  return KernelRegistry::instance().by_name(name);
}

TEST(StreamGen, SameSeedIdenticalStreams) {
  StreamGen a(kernel(kKernelHpcMixed), 42);
  StreamGen b(kernel(kKernelHpcMixed), 42);
  for (int i = 0; i < 5000; ++i) {
    const MicroOp oa = a.next();
    const MicroOp ob = b.next();
    ASSERT_EQ(oa.cls, ob.cls) << "op " << i;
    ASSERT_EQ(oa.address, ob.address);
    ASSERT_EQ(oa.dep_dist, ob.dep_dist);
    ASSERT_EQ(oa.mispredicted, ob.mispredicted);
  }
}

TEST(StreamGen, DifferentSeedsDifferentAddressSpaces) {
  StreamGen a(kernel(kKernelHpcMixed), 1);
  StreamGen b(kernel(kKernelHpcMixed), 2);
  // Two MPI processes must not share cache lines: their address bases
  // must differ by more than any working set.
  std::uint64_t addr_a = 0, addr_b = 0;
  for (int i = 0; i < 100 && (addr_a == 0 || addr_b == 0); ++i) {
    const MicroOp oa = a.next();
    const MicroOp ob = b.next();
    if (addr_a == 0 && oa.is_memory()) addr_a = oa.address;
    if (addr_b == 0 && ob.is_memory()) addr_b = ob.address;
  }
  ASSERT_NE(addr_a, 0u);
  ASSERT_NE(addr_b, 0u);
  const std::uint64_t gap = addr_a > addr_b ? addr_a - addr_b : addr_b - addr_a;
  EXPECT_GT(gap, 1024u * 1024u);
}

TEST(StreamGen, CountsGenerated) {
  StreamGen gen(kernel(kKernelHpcMixed), 1);
  for (int i = 0; i < 17; ++i) (void)gen.next();
  EXPECT_EQ(gen.generated(), 17u);
}

TEST(StreamGen, ExposesKernelIdAndParams) {
  const Kernel& k = kernel(kKernelCfd);
  StreamGen gen(k, 1);
  EXPECT_EQ(gen.kernel_id(), k.id);
  EXPECT_EQ(gen.params().name, k.params.name);
}

class StreamMixSweep : public ::testing::TestWithParam<std::string_view> {};

TEST_P(StreamMixSweep, ObservedMixMatchesKernel) {
  const Kernel& k = kernel(GetParam());
  StreamGen gen(k, 7);
  std::array<int, kNumOpClasses> counts{};
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<int>(gen.next().cls)];
  }
  for (int c = 0; c < kNumOpClasses; ++c) {
    const double observed = static_cast<double>(counts[static_cast<std::size_t>(c)]) / n;
    EXPECT_NEAR(observed, k.params.mix[static_cast<std::size_t>(c)], 0.01)
        << "class " << to_string(static_cast<OpClass>(c));
  }
}

TEST_P(StreamMixSweep, AddressesStayInWorkingSetSlice) {
  const Kernel& k = kernel(GetParam());
  StreamGen gen(k, 11);
  std::uint64_t base = ~std::uint64_t{0};
  for (int i = 0; i < 20000; ++i) {
    const MicroOp op = gen.next();
    if (!op.is_memory()) continue;
    base = std::min(base, op.address);
  }
  StreamGen gen2(kernel(GetParam()), 11);
  for (int i = 0; i < 20000; ++i) {
    const MicroOp op = gen2.next();
    if (!op.is_memory()) continue;
    ASSERT_LT(op.address - base, k.params.working_set_bytes)
        << "address escaped the working set";
  }
}

TEST_P(StreamMixSweep, MispredictRateMatches) {
  const Kernel& k = kernel(GetParam());
  StreamGen gen(k, 13);
  int branches = 0, mispredicts = 0;
  for (int i = 0; i < 400000; ++i) {
    const MicroOp op = gen.next();
    if (op.cls != OpClass::kBranch) continue;
    ++branches;
    if (op.mispredicted) ++mispredicts;
  }
  if (branches == 0) {
    EXPECT_EQ(k.params.mix[static_cast<int>(OpClass::kBranch)], 0.0);
    return;
  }
  const double rate = static_cast<double>(mispredicts) / branches;
  EXPECT_NEAR(rate, k.params.branch_mispredict_rate,
              std::max(0.01, k.params.branch_mispredict_rate * 0.5));
}

INSTANTIATE_TEST_SUITE_P(Builtins, StreamMixSweep,
                         ::testing::Values(kKernelHpcMixed, kKernelFpuStress,
                                           kKernelIntStress, kKernelL2Stress,
                                           kKernelBranchStress, kKernelCfd,
                                           kKernelDft, kKernelSpinWait),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(StreamGen, DependencyDistanceMeanApproximatesConfig) {
  KernelParams params;
  params.name = "deptest";
  params.dep_fraction = 1.0;
  params.mean_dep_dist = 6.0;
  KernelRegistry registry;
  const KernelId id = registry.register_kernel(params);
  StreamGen gen(registry.get(id), 3);
  double sum = 0.0;
  int count = 0;
  for (int i = 0; i < 100000; ++i) {
    const MicroOp op = gen.next();
    if (op.dep_dist > 0) {
      sum += op.dep_dist;
      ++count;
    }
  }
  ASSERT_GT(count, 90000);
  EXPECT_NEAR(sum / count, 6.0, 0.5);
}

TEST(StreamGen, NoDependenciesWhenDisabled) {
  KernelParams params;
  params.name = "nodep";
  params.dep_fraction = 0.0;
  KernelRegistry registry;
  StreamGen gen(registry.get(registry.register_kernel(params)), 3);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(gen.next().dep_dist, 0);
  }
}

TEST(StreamGen, DependencyDistanceBounded) {
  // The core's dependency window assumes dep_dist <= 64.
  StreamGen gen(kernel(kKernelHpcMixed), 17);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_LE(gen.next().dep_dist, 64);
  }
}

TEST(StreamGen, StridedAddressesAdvanceByStride) {
  KernelParams params;
  params.name = "stride";
  params.mix = {0.0, 0.0, 1.0, 0.0, 0.0};
  params.dep_fraction = 0.0;
  params.working_set_bytes = 4096;
  params.stride_bytes = 64;
  params.random_access_fraction = 0.0;
  KernelRegistry registry;
  StreamGen gen(registry.get(registry.register_kernel(params)), 5);
  std::uint64_t prev = gen.next().address;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t addr = gen.next().address;
    const std::uint64_t diff = addr > prev ? addr - prev : prev - addr;
    // Either advances by the stride or wraps around the working set.
    EXPECT_TRUE(diff == 64 || diff == 4096 - 64) << "diff=" << diff;
    prev = addr;
  }
}

TEST(StreamGen, FootprintCoversEveryGeneratedAddress) {
  for (const std::string_view name :
       {kKernelHpcMixed, kKernelL2Stress, kKernelSpinWait}) {
    const Kernel& k = kernel(name);
    const AddressRange range = StreamGen::footprint(k, 7);
    ASSERT_EQ(range.bytes, k.params.working_set_bytes) << name;
    EXPECT_EQ(range.base % (1u << 20), 0u) << "slices are 1 MiB aligned";
    StreamGen stream(k, 7);
    for (int i = 0; i < 20000; ++i) {
      const MicroOp op = stream.next();
      if (!op.is_memory()) continue;
      ASSERT_LT(op.address - range.base, range.bytes) << name << " op " << i;
    }
  }
}

TEST(StreamGen, FootprintDependsOnSeedNotKernel) {
  EXPECT_EQ(StreamGen::footprint(kernel(kKernelHpcMixed), 3).base,
            StreamGen::footprint(kernel(kKernelMemStress), 3).base);
  EXPECT_NE(StreamGen::footprint(kernel(kKernelHpcMixed), 3).base,
            StreamGen::footprint(kernel(kKernelHpcMixed), 4).base);
}

TEST(StreamGen, KernelWithoutMemoryOpsHasEmptyFootprint) {
  Kernel pure;
  pure.params.name = "pure_fxu";
  pure.params.mix = {0.7, 0.3, 0.0, 0.0, 0.0};
  EXPECT_EQ(StreamGen::footprint(pure, 1).bytes, 0u);
}

}  // namespace
}  // namespace smtbal::isa
