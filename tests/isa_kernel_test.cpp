#include "isa/kernel.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "common/error.hpp"

namespace smtbal::isa {
namespace {

KernelParams valid_params(const std::string& name) {
  KernelParams k;
  k.name = name;
  return k;
}

TEST(KernelParams, DefaultIsValid) {
  EXPECT_NO_THROW(valid_params("k").validate());
}

TEST(KernelParams, RejectsMixNotSummingToOne) {
  KernelParams k = valid_params("bad");
  k.mix = {0.5, 0.5, 0.5, 0.0, 0.0};
  EXPECT_THROW(k.validate(), InvalidArgument);
}

TEST(KernelParams, RejectsNegativeMix) {
  KernelParams k = valid_params("bad");
  k.mix = {1.2, -0.2, 0.0, 0.0, 0.0};
  EXPECT_THROW(k.validate(), InvalidArgument);
}

struct BadField {
  const char* label;
  void (*mutate)(KernelParams&);
};

// Without a printer gtest names each case after the struct's bytes: two
// pointers that move with address-space randomisation on every run.
void PrintTo(const BadField& field, std::ostream* os) {
  *os << '"' << field.label << '"';
}

class KernelParamsBadField : public ::testing::TestWithParam<BadField> {};

TEST_P(KernelParamsBadField, Rejected) {
  KernelParams k = valid_params("bad");
  GetParam().mutate(k);
  EXPECT_THROW(k.validate(), InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, KernelParamsBadField,
    ::testing::Values(
        BadField{"neg_dep_dist", [](KernelParams& k) { k.mean_dep_dist = -1; }},
        BadField{"dep_dist_below_one",
                 [](KernelParams& k) { k.mean_dep_dist = 0.5; }},
        BadField{"dep_dist_huge", [](KernelParams& k) { k.mean_dep_dist = 2e9; }},
        BadField{"dep_fraction_hi", [](KernelParams& k) { k.dep_fraction = 1.5; }},
        BadField{"dep_fraction_lo", [](KernelParams& k) { k.dep_fraction = -0.1; }},
        BadField{"zero_ws", [](KernelParams& k) { k.working_set_bytes = 0; }},
        BadField{"zero_stride", [](KernelParams& k) { k.stride_bytes = 0; }},
        BadField{"random_frac", [](KernelParams& k) { k.random_access_fraction = 2; }},
        BadField{"mispredict", [](KernelParams& k) { k.branch_mispredict_rate = -1; }},
        BadField{"fetch_gap", [](KernelParams& k) { k.fetch_gap_fraction = 1.0; }}),
    [](const ::testing::TestParamInfo<BadField>& info) {
      return info.param.label;
    });

TEST(KernelRegistry, BuiltinsPresent) {
  const auto& registry = KernelRegistry::instance();
  for (std::string_view name :
       {kKernelHpcMixed, kKernelFpuStress, kKernelIntStress, kKernelL2Stress,
        kKernelMemStress, kKernelBranchStress, kKernelCfd, kKernelDft,
        kKernelSpinWait}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_EQ(registry.by_name(name).name(), name);
  }
}

TEST(KernelRegistry, BuiltinsAreValid) {
  for (const KernelParams& params : builtin_kernels()) {
    EXPECT_NO_THROW(params.validate()) << params.name;
  }
}

TEST(KernelRegistry, IdsRoundTrip) {
  const auto& registry = KernelRegistry::instance();
  for (const Kernel& kernel : registry.all()) {
    EXPECT_EQ(registry.get(kernel.id).id, kernel.id);
    EXPECT_EQ(registry.by_name(kernel.params.name).id, kernel.id);
  }
}

TEST(KernelRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)KernelRegistry::instance().by_name("no-such-kernel"),
               InvalidArgument);
}

TEST(KernelRegistry, UnknownIdThrows) {
  EXPECT_THROW((void)KernelRegistry::instance().get(1000000), InvalidArgument);
}

TEST(KernelRegistry, ReregisterIdenticalReturnsSameId) {
  KernelRegistry registry;
  KernelParams k = valid_params("dup");
  const KernelId first = registry.register_kernel(k);
  const KernelId second = registry.register_kernel(k);
  EXPECT_EQ(first, second);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(KernelRegistry, ReregisterConflictingThrows) {
  KernelRegistry registry;
  KernelParams k = valid_params("conflict");
  registry.register_kernel(k);
  k.working_set_bytes *= 2;
  EXPECT_THROW(registry.register_kernel(k), InvalidArgument);
}

TEST(KernelRegistry, SpinWaitNeverGaps) {
  // A busy-wait loop always has instructions to decode; the engine's
  // "waiting ranks still consume decode slots" behaviour depends on it.
  const auto& spin = KernelRegistry::instance().by_name(kKernelSpinWait);
  EXPECT_EQ(spin.params.fetch_gap_fraction, 0.0);
}

TEST(OpClass, Names) {
  EXPECT_EQ(to_string(OpClass::kFixed), "FXU");
  EXPECT_EQ(to_string(OpClass::kFloat), "FPU");
  EXPECT_EQ(to_string(OpClass::kLoad), "LD");
  EXPECT_EQ(to_string(OpClass::kStore), "ST");
  EXPECT_EQ(to_string(OpClass::kBranch), "BR");
}

TEST(MicroOp, MemoryClassification) {
  MicroOp op;
  op.cls = OpClass::kLoad;
  EXPECT_TRUE(op.is_memory());
  op.cls = OpClass::kStore;
  EXPECT_TRUE(op.is_memory());
  op.cls = OpClass::kFixed;
  EXPECT_FALSE(op.is_memory());
  op.cls = OpClass::kBranch;
  EXPECT_FALSE(op.is_memory());
}

}  // namespace
}  // namespace smtbal::isa
