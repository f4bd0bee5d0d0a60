#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace smtbal::trace {
namespace {

TEST(Tracer, RejectsZeroRanks) { EXPECT_THROW(Tracer{0}, InvalidArgument); }

TEST(Tracer, RecordsIntervals) {
  Tracer tracer(2);
  tracer.record(RankId{0}, 0.0, 1.0, RankState::kCompute);
  tracer.record(RankId{0}, 1.0, 1.5, RankState::kSync);
  tracer.finish(1.5);
  ASSERT_EQ(tracer.timeline(RankId{0}).size(), 2u);
  EXPECT_EQ(tracer.timeline(RankId{0})[0].state, RankState::kCompute);
  EXPECT_DOUBLE_EQ(tracer.timeline(RankId{0})[1].duration(), 0.5);
}

TEST(Tracer, DropsZeroLengthIntervals) {
  Tracer tracer(1);
  tracer.record(RankId{0}, 1.0, 1.0, RankState::kCompute);
  EXPECT_TRUE(tracer.timeline(RankId{0}).empty());
}

TEST(Tracer, MergesAdjacentSameState) {
  Tracer tracer(1);
  tracer.record(RankId{0}, 0.0, 1.0, RankState::kCompute);
  tracer.record(RankId{0}, 1.0, 2.0, RankState::kCompute);
  EXPECT_EQ(tracer.timeline(RankId{0}).size(), 1u);
  EXPECT_DOUBLE_EQ(tracer.timeline(RankId{0})[0].duration(), 2.0);
}

TEST(Tracer, RejectsOutOfOrderRecords) {
  Tracer tracer(1);
  tracer.record(RankId{0}, 1.0, 2.0, RankState::kCompute);
  EXPECT_THROW(tracer.record(RankId{0}, 0.5, 0.8, RankState::kSync),
               InvalidArgument);
}

TEST(Tracer, RejectsNegativeInterval) {
  Tracer tracer(1);
  EXPECT_THROW(tracer.record(RankId{0}, 2.0, 1.0, RankState::kCompute),
               InvalidArgument);
}

TEST(Tracer, RejectsBadRank) {
  Tracer tracer(2);
  EXPECT_THROW(tracer.record(RankId{2}, 0.0, 1.0, RankState::kCompute),
               InvalidArgument);
  EXPECT_THROW((void)tracer.timeline(RankId{7}), InvalidArgument);
}

TEST(Tracer, StatsFractions) {
  Tracer tracer(1);
  tracer.record(RankId{0}, 0.0, 6.0, RankState::kCompute);
  tracer.record(RankId{0}, 6.0, 10.0, RankState::kSync);
  tracer.finish(10.0);
  const RankStats stats = tracer.stats(RankId{0});
  EXPECT_DOUBLE_EQ(stats.comp_fraction(), 0.6);
  EXPECT_DOUBLE_EQ(stats.sync_fraction(), 0.4);
  EXPECT_DOUBLE_EQ(stats.fraction(RankState::kInit), 0.0);
}

TEST(Tracer, FinishExtendsToLatestInterval) {
  Tracer tracer(2);
  tracer.record(RankId{0}, 0.0, 2.0, RankState::kCompute);
  tracer.record(RankId{1}, 0.0, 5.0, RankState::kCompute);
  tracer.finish(1.0);  // earlier than recorded content
  EXPECT_DOUBLE_EQ(tracer.end_time(), 5.0);
}

TEST(Tracer, ImbalanceIsMaxSyncFraction) {
  // The paper's metric: max over processes of waiting-time percentage.
  Tracer tracer(3);
  tracer.record(RankId{0}, 0.0, 10.0, RankState::kCompute);
  tracer.record(RankId{1}, 0.0, 4.0, RankState::kCompute);
  tracer.record(RankId{1}, 4.0, 10.0, RankState::kSync);
  tracer.record(RankId{2}, 0.0, 7.0, RankState::kCompute);
  tracer.record(RankId{2}, 7.0, 10.0, RankState::kSync);
  tracer.finish(10.0);
  EXPECT_DOUBLE_EQ(tracer.imbalance(), 0.6);
}

TEST(Tracer, BalancedTraceHasZeroImbalance) {
  Tracer tracer(2);
  tracer.record(RankId{0}, 0.0, 10.0, RankState::kCompute);
  tracer.record(RankId{1}, 0.0, 10.0, RankState::kCompute);
  tracer.finish(10.0);
  EXPECT_DOUBLE_EQ(tracer.imbalance(), 0.0);
}

TEST(Tracer, FractionsSumToAtMostOne) {
  Tracer tracer(1);
  tracer.record(RankId{0}, 0.0, 2.0, RankState::kInit);
  tracer.record(RankId{0}, 2.0, 5.0, RankState::kCompute);
  tracer.record(RankId{0}, 5.0, 6.0, RankState::kStat);
  tracer.record(RankId{0}, 6.0, 9.0, RankState::kSync);
  tracer.finish(10.0);
  const RankStats stats = tracer.stats(RankId{0});
  double total = 0.0;
  for (int s = 0; s < kNumRankStates; ++s) {
    total += stats.fraction(static_cast<RankState>(s));
  }
  EXPECT_LE(total, 1.0 + 1e-12);
  EXPECT_NEAR(total, 0.9, 1e-12);  // one second unaccounted (done)
}

TEST(RankState, GlyphsAreDistinct) {
  std::set<char> glyphs;
  for (int s = 0; s < kNumRankStates; ++s) {
    glyphs.insert(glyph(static_cast<RankState>(s)));
  }
  EXPECT_EQ(glyphs.size(), static_cast<std::size_t>(kNumRankStates));
}

TEST(RankState, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (int s = 0; s < kNumRankStates; ++s) {
    names.insert(to_string(static_cast<RankState>(s)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumRankStates));
}

}  // namespace
}  // namespace smtbal::trace
