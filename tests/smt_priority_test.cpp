#include "smt/priority.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace smtbal::smt {
namespace {

// ---------------------------------------------------------------------------
// Table I: priority levels, privilege requirements, or-nop encodings.
// ---------------------------------------------------------------------------

// gtest names each case after the row's raw bytes (the row has no printer),
// so the row must have no padding: a one-byte PrivilegeLevel field left
// three uninitialised bytes that put stack garbage into the test names.
struct TableOneRow {
  int priority;
  int privilege;      // a PrivilegeLevel, widened to int; see level()
  const char* ornop;  // nullptr = no or-nop form
};

constexpr int level(PrivilegeLevel p) { return static_cast<int>(p); }

class TableOne : public ::testing::TestWithParam<TableOneRow> {};

TEST_P(TableOne, PrivilegeMatchesPaper) {
  const TableOneRow& row = GetParam();
  EXPECT_EQ(level(required_privilege(priority_from_int(row.priority))),
            row.privilege);
}

TEST_P(TableOne, OrNopEncodingMatchesPaper) {
  const TableOneRow& row = GetParam();
  const auto encoding = or_nop_encoding(priority_from_int(row.priority));
  if (row.ornop == nullptr) {
    EXPECT_FALSE(encoding.has_value());
  } else {
    ASSERT_TRUE(encoding.has_value());
    EXPECT_EQ(*encoding, row.ornop);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableOne,
    ::testing::Values(
        TableOneRow{0, level(PrivilegeLevel::kHypervisor), nullptr},
        TableOneRow{1, level(PrivilegeLevel::kSupervisor), "or 31,31,31"},
        TableOneRow{2, level(PrivilegeLevel::kUser), "or 1,1,1"},
        TableOneRow{3, level(PrivilegeLevel::kUser), "or 6,6,6"},
        TableOneRow{4, level(PrivilegeLevel::kUser), "or 2,2,2"},
        TableOneRow{5, level(PrivilegeLevel::kSupervisor), "or 5,5,5"},
        TableOneRow{6, level(PrivilegeLevel::kSupervisor), "or 3,3,3"},
        TableOneRow{7, level(PrivilegeLevel::kHypervisor), "or 7,7,7"}),
    [](const auto& info) { return "P" + std::to_string(info.param.priority); });

TEST(Privilege, UserCanOnlySet234) {
  for (int p = 0; p <= 7; ++p) {
    const bool expected = p >= 2 && p <= 4;
    EXPECT_EQ(can_set(PrivilegeLevel::kUser, priority_from_int(p)), expected)
        << "priority " << p;
  }
}

TEST(Privilege, SupervisorCanSet1Through6) {
  for (int p = 0; p <= 7; ++p) {
    const bool expected = p >= 1 && p <= 6;
    EXPECT_EQ(can_set(PrivilegeLevel::kSupervisor, priority_from_int(p)),
              expected)
        << "priority " << p;
  }
}

TEST(Privilege, HypervisorCanSetEverything) {
  for (int p = 0; p <= 7; ++p) {
    EXPECT_TRUE(can_set(PrivilegeLevel::kHypervisor, priority_from_int(p)));
  }
}

TEST(Priority, FromIntRejectsOutOfRange) {
  EXPECT_THROW((void)priority_from_int(-1), InvalidArgument);
  EXPECT_THROW((void)priority_from_int(8), InvalidArgument);
}

TEST(Priority, Names) {
  EXPECT_EQ(to_string(HwPriority::kOff), "OFF");
  EXPECT_EQ(to_string(HwPriority::kMedium), "MEDIUM");
  EXPECT_EQ(to_string(HwPriority::kVeryHigh), "VERY-HIGH");
}

// ---------------------------------------------------------------------------
// Table II: R = 2^(|X-Y|+1); lower-priority thread gets 1 of R cycles.
// ---------------------------------------------------------------------------

class TableTwo : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TableTwo, SliceAndSlotsMatchFormula) {
  const auto [a, b] = GetParam();
  const DecodeShare share =
      decode_share(priority_from_int(a), priority_from_int(b));
  const int diff = a > b ? a - b : b - a;
  EXPECT_EQ(share.slice_cycles, 1u << (diff + 1));
  if (a == b) {
    EXPECT_EQ(share.slots_a, 1u);
    EXPECT_EQ(share.slots_b, 1u);
  } else if (a > b) {
    EXPECT_EQ(share.slots_a, share.slice_cycles - 1);
    EXPECT_EQ(share.slots_b, 1u);
  } else {
    EXPECT_EQ(share.slots_a, 1u);
    EXPECT_EQ(share.slots_b, share.slice_cycles - 1);
  }
  EXPECT_TRUE(share.a_runs);
  EXPECT_TRUE(share.b_runs);
  EXPECT_FALSE(share.a_leftover_only);
  EXPECT_FALSE(share.b_leftover_only);
}

TEST_P(TableTwo, FractionsSumToOne) {
  const auto [a, b] = GetParam();
  const DecodeShare share =
      decode_share(priority_from_int(a), priority_from_int(b));
  EXPECT_LE(share.fraction_a() + share.fraction_b(), 1.0 + 1e-12);
  if (a == b) {
    // Equal priorities: strict alternation, both get 1 of 2.
    EXPECT_DOUBLE_EQ(share.fraction_a(), 0.5);
    EXPECT_DOUBLE_EQ(share.fraction_b(), 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairsAbove1, TableTwo,
                         ::testing::Combine(::testing::Range(2, 8),
                                            ::testing::Range(2, 8)));

TEST(TableTwo, PaperExampleRows) {
  // Paper Table II: diff 0..4 => R = 2, 4, 8, 16, 32.
  EXPECT_EQ(decode_share(HwPriority::kHigh, HwPriority::kHigh).slice_cycles, 2u);
  EXPECT_EQ(decode_share(HwPriority::kHigh, HwPriority::kMediumHigh).slice_cycles, 4u);
  EXPECT_EQ(decode_share(HwPriority::kHigh, HwPriority::kMedium).slice_cycles, 8u);
  EXPECT_EQ(decode_share(HwPriority::kHigh, HwPriority::kMediumLow).slice_cycles, 16u);
  EXPECT_EQ(decode_share(HwPriority::kHigh, HwPriority::kLow).slice_cycles, 32u);
  // "the core fetches 31 times from context0 and once from context1".
  const DecodeShare share = decode_share(HwPriority::kHigh, HwPriority::kLow);
  EXPECT_EQ(share.slots_a, 31u);
  EXPECT_EQ(share.slots_b, 1u);
}

// ---------------------------------------------------------------------------
// Table III: special cases when either priority is 0 or 1.
// ---------------------------------------------------------------------------

TEST(TableThree, VeryLowAgainstNormalIsLeftoverOnly) {
  const DecodeShare share = decode_share(HwPriority::kVeryLow, HwPriority::kMedium);
  EXPECT_EQ(share.slots_a, 0u);
  EXPECT_TRUE(share.a_leftover_only);
  EXPECT_TRUE(share.a_runs);
  EXPECT_TRUE(share.b_runs);
  // Symmetric case.
  const DecodeShare mirrored =
      decode_share(HwPriority::kMedium, HwPriority::kVeryLow);
  EXPECT_TRUE(mirrored.b_leftover_only);
  EXPECT_EQ(mirrored.slots_b, 0u);
}

TEST(TableThree, PowerSaveModeOneOf64Each) {
  const DecodeShare share =
      decode_share(HwPriority::kVeryLow, HwPriority::kVeryLow);
  EXPECT_EQ(share.slice_cycles, 64u);
  EXPECT_EQ(share.slots_a, 1u);
  EXPECT_EQ(share.slots_b, 1u);
}

TEST(TableThree, StModeGivesEverythingToRunningThread) {
  const DecodeShare share = decode_share(HwPriority::kOff, HwPriority::kMedium);
  EXPECT_FALSE(share.a_runs);
  EXPECT_TRUE(share.b_runs);
  EXPECT_DOUBLE_EQ(share.fraction_b(), 1.0);
}

TEST(TableThree, OffAgainstVeryLowIsOneOf32) {
  const DecodeShare share = decode_share(HwPriority::kOff, HwPriority::kVeryLow);
  EXPECT_FALSE(share.a_runs);
  EXPECT_EQ(share.slice_cycles, 32u);
  EXPECT_EQ(share.slots_b, 1u);
}

TEST(TableThree, BothOffStopsProcessor) {
  const DecodeShare share = decode_share(HwPriority::kOff, HwPriority::kOff);
  EXPECT_FALSE(share.a_runs);
  EXPECT_FALSE(share.b_runs);
  EXPECT_EQ(share.slots_a + share.slots_b, 0u);
}

// ---------------------------------------------------------------------------
// DecodeArbiter: cycle-by-cycle grants realise the share exactly.
// ---------------------------------------------------------------------------

struct GrantCount {
  Cycle a = 0;
  Cycle b = 0;
  Cycle none = 0;
};

GrantCount count_grants(const DecodeArbiter& arbiter, Cycle cycles,
                        bool a_wants = true, bool b_wants = true) {
  GrantCount counts;
  for (Cycle c = 0; c < cycles; ++c) {
    switch (arbiter.grant(c, ThreadSignals{a_wants, a_wants},
                          ThreadSignals{b_wants, b_wants})) {
      case DecodeGrant::kThreadA: ++counts.a; break;
      case DecodeGrant::kThreadB: ++counts.b; break;
      case DecodeGrant::kNone: ++counts.none; break;
    }
  }
  return counts;
}

class ArbiterShareSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ArbiterShareSweep, GrantCountsMatchShareExactly) {
  const auto [a, b] = GetParam();
  const DecodeArbiter arbiter(priority_from_int(a), priority_from_int(b));
  const DecodeShare share = arbiter.share();
  const Cycle window = share.slice_cycles * 64;
  const GrantCount counts = count_grants(arbiter, window);
  EXPECT_EQ(counts.a, share.slots_a * 64u);
  EXPECT_EQ(counts.b, share.slots_b * 64u);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, ArbiterShareSweep,
                         ::testing::Combine(::testing::Range(2, 8),
                                            ::testing::Range(2, 8)));

TEST(Arbiter, EqualPrioritiesAlternate) {
  const DecodeArbiter arbiter(HwPriority::kMedium, HwPriority::kMedium);
  EXPECT_EQ(arbiter.grant(0, {true, true}, {true, true}), DecodeGrant::kThreadA);
  EXPECT_EQ(arbiter.grant(1, {true, true}, {true, true}), DecodeGrant::kThreadB);
  EXPECT_EQ(arbiter.grant(2, {true, true}, {true, true}), DecodeGrant::kThreadA);
}

TEST(Arbiter, StrictSlicingWastesResourceBlockedSlots) {
  const DecodeArbiter arbiter(HwPriority::kMedium, HwPriority::kMedium);
  // B's slot, B resource-blocked (has instructions but cannot decode):
  // the slot idles, A does NOT take it.
  EXPECT_EQ(arbiter.grant(1, {true, true}, {false, true}), DecodeGrant::kNone);
}

TEST(Arbiter, FetchStarvedSlotsAreDonated) {
  const DecodeArbiter arbiter(HwPriority::kMedium, HwPriority::kMedium);
  // B's slot, B fetch-starved (no instructions): A takes it.
  EXPECT_EQ(arbiter.grant(1, {true, true}, {false, false}),
            DecodeGrant::kThreadA);
}

TEST(Arbiter, WorkConservingDonatesResourceBlockedSlots) {
  const DecodeArbiter arbiter(HwPriority::kMedium, HwPriority::kMedium,
                              /*work_conserving=*/true);
  EXPECT_EQ(arbiter.grant(1, {true, true}, {false, true}),
            DecodeGrant::kThreadA);
}

TEST(Arbiter, LeftoverRuleLetsVeryLowDecodeUnusedCycles) {
  const DecodeArbiter arbiter(HwPriority::kVeryLow, HwPriority::kMedium);
  // Owner (B) wants: B decodes, A never owns a slot.
  EXPECT_EQ(arbiter.grant(0, {true, true}, {true, true}), DecodeGrant::kThreadB);
  // B resource-blocked: the VERY-LOW thread picks the cycle up even
  // without work-conserving mode (Table III leftover semantics).
  EXPECT_EQ(arbiter.grant(0, {true, true}, {false, true}),
            DecodeGrant::kThreadA);
}

TEST(Arbiter, LeftoverRuleMirroredForThreadB) {
  // (MEDIUM, VERY-LOW): every slot belongs to A; B only runs on leftovers.
  const DecodeArbiter arbiter(HwPriority::kMedium, HwPriority::kVeryLow);
  ASSERT_TRUE(arbiter.share().b_leftover_only);
  // Owner wants: owner decodes, on every cycle of the slice.
  for (Cycle c = 0; c < 64; ++c) {
    EXPECT_EQ(arbiter.grant(c, {true, true}, {true, true}),
              DecodeGrant::kThreadA)
        << "cycle " << c;
  }
  // A resource-blocked (has instructions but cannot decode): the leftover
  // rule still donates the cycle to B — unlike the strict Table II slicing,
  // which would waste it.
  EXPECT_EQ(arbiter.grant(0, {false, true}, {true, true}),
            DecodeGrant::kThreadB);
  // A fetch-starved: donated as well.
  EXPECT_EQ(arbiter.grant(0, {false, false}, {true, true}),
            DecodeGrant::kThreadB);
  // B has nothing to decode: the cycle idles.
  EXPECT_EQ(arbiter.grant(0, {false, false}, {false, false}),
            DecodeGrant::kNone);
}

TEST(Arbiter, OffVsVeryLowGrantsOneOf32) {
  // Table III (0, 1): the VERY-LOW thread receives 1 of 32 decode cycles;
  // the OFF thread receives nothing, ever.
  const DecodeArbiter off_a(HwPriority::kOff, HwPriority::kVeryLow);
  const GrantCount counts = count_grants(off_a, 3200);
  EXPECT_EQ(counts.a, 0u);
  EXPECT_EQ(counts.b, 100u);
  EXPECT_EQ(counts.none, 3100u);
  // The OFF thread is never granted even if it claims to want the slot.
  for (Cycle c = 0; c < 64; ++c) {
    EXPECT_NE(off_a.grant(c, {true, true}, {true, true}), DecodeGrant::kThreadA)
        << "cycle " << c;
  }

  // Mirrored: (1, 0) gives thread A the 1-in-32 slots.
  const DecodeArbiter off_b(HwPriority::kVeryLow, HwPriority::kOff);
  const GrantCount mirrored = count_grants(off_b, 3200);
  EXPECT_EQ(mirrored.a, 100u);
  EXPECT_EQ(mirrored.b, 0u);
}

TEST(Arbiter, PowerSaveGrantsOneOf64Each) {
  const DecodeArbiter arbiter(HwPriority::kVeryLow, HwPriority::kVeryLow);
  const GrantCount counts = count_grants(arbiter, 6400);
  EXPECT_EQ(counts.a, 100u);
  EXPECT_EQ(counts.b, 100u);
}

TEST(Arbiter, StoppedProcessorGrantsNothing) {
  const DecodeArbiter arbiter(HwPriority::kOff, HwPriority::kOff);
  const GrantCount counts = count_grants(arbiter, 128);
  EXPECT_EQ(counts.a + counts.b, 0u);
}

TEST(Arbiter, SetPrioritiesTakesEffect) {
  DecodeArbiter arbiter(HwPriority::kMedium, HwPriority::kMedium);
  arbiter.set_priorities(HwPriority::kLow, HwPriority::kHigh);
  EXPECT_EQ(arbiter.share().slice_cycles, 32u);
  EXPECT_EQ(arbiter.priority_a(), HwPriority::kLow);
  EXPECT_EQ(arbiter.priority_b(), HwPriority::kHigh);
}

TEST(Arbiter, LowerPriorityOwnsFirstSliceCycle) {
  // With (4, 6): slice of 8, cycle 0 belongs to A (the lower priority).
  const DecodeArbiter arbiter(HwPriority::kMedium, HwPriority::kHigh);
  EXPECT_EQ(arbiter.grant(0, {true, true}, {true, true}), DecodeGrant::kThreadA);
  for (Cycle c = 1; c < 8; ++c) {
    EXPECT_EQ(arbiter.grant(c, {true, true}, {true, true}),
              DecodeGrant::kThreadB)
        << "cycle " << c;
  }
}

}  // namespace
}  // namespace smtbal::smt
