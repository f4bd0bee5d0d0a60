#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

#include "common/error.hpp"

namespace smtbal {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b()) << "diverged at draw " << i;
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng rng(7);
  const std::uint64_t first = rng();
  for (int i = 0; i < 100; ++i) (void)rng();
  rng.reseed(7);
  EXPECT_EQ(rng(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowZeroBoundReturnsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(10, 13);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ChanceZeroNeverFires) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) ASSERT_FALSE(rng.chance(0.0));
}

TEST(Rng, ChanceOneAlwaysFires) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(23);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(23), b(23);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca(), cb());
}

TEST(Splitmix, KnownGolden) {
  // Reference values from the public-domain splitmix64 implementation.
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  EXPECT_EQ(first, 0xE220A8397B1DCDAFULL);
}

TEST(Exponential, MeanMatches) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += exponential(rng, 2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Exponential, AlwaysNonNegative) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(exponential(rng, 1.0), 0.0);
}

TEST(Exponential, RejectsNonPositiveMean) {
  Rng rng(1);
  EXPECT_THROW((void)exponential(rng, 0.0), InvalidArgument);
  EXPECT_THROW((void)exponential(rng, -1.0), InvalidArgument);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformStaysUnbiasedAcrossSeeds) {
  Rng rng(GetParam());
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, BelowStaysUnbiasedAcrossSeeds) {
  Rng rng(GetParam());
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.below(1000));
  EXPECT_NEAR(sum / n, 499.5, 15.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xDEADBEEFULL,
                                           ~0ULL));

}  // namespace
}  // namespace smtbal
