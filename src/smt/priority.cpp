#include "smt/priority.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace smtbal::smt {

std::string_view to_string(HwPriority priority) {
  switch (priority) {
    case HwPriority::kOff: return "OFF";
    case HwPriority::kVeryLow: return "VERY-LOW";
    case HwPriority::kLow: return "LOW";
    case HwPriority::kMediumLow: return "MEDIUM-LOW";
    case HwPriority::kMedium: return "MEDIUM";
    case HwPriority::kMediumHigh: return "MEDIUM-HIGH";
    case HwPriority::kHigh: return "HIGH";
    case HwPriority::kVeryHigh: return "VERY-HIGH";
  }
  return "?";
}

std::string_view to_string(PrivilegeLevel level) {
  switch (level) {
    case PrivilegeLevel::kUser: return "User";
    case PrivilegeLevel::kSupervisor: return "Supervisor";
    case PrivilegeLevel::kHypervisor: return "Hypervisor";
  }
  return "?";
}

PrivilegeLevel required_privilege(HwPriority priority) {
  switch (priority) {
    case HwPriority::kOff:
    case HwPriority::kVeryHigh:
      return PrivilegeLevel::kHypervisor;
    case HwPriority::kVeryLow:
    case HwPriority::kMediumHigh:
    case HwPriority::kHigh:
      return PrivilegeLevel::kSupervisor;
    case HwPriority::kLow:
    case HwPriority::kMediumLow:
    case HwPriority::kMedium:
      return PrivilegeLevel::kUser;
  }
  return PrivilegeLevel::kHypervisor;
}

bool can_set(PrivilegeLevel level, HwPriority priority) {
  return static_cast<int>(level) >=
         static_cast<int>(required_privilege(priority));
}

std::optional<std::string_view> or_nop_encoding(HwPriority priority) {
  switch (priority) {
    case HwPriority::kOff: return std::nullopt;
    case HwPriority::kVeryLow: return "or 31,31,31";
    case HwPriority::kLow: return "or 1,1,1";
    case HwPriority::kMediumLow: return "or 6,6,6";
    case HwPriority::kMedium: return "or 2,2,2";
    case HwPriority::kMediumHigh: return "or 5,5,5";
    case HwPriority::kHigh: return "or 3,3,3";
    case HwPriority::kVeryHigh: return "or 7,7,7";
  }
  return std::nullopt;
}

HwPriority priority_from_int(int value) {
  SMTBAL_REQUIRE(value >= 0 && value <= 7,
                 "hardware priority must be in 0..7");
  return static_cast<HwPriority>(value);
}

DecodeSchedule decode_schedule(std::span<const HwPriority> priorities) {
  const std::size_t n = priorities.size();
  SMTBAL_REQUIRE(n >= 1 && n <= 64, "decode schedule needs 1..64 contexts");

  DecodeSchedule schedule;
  schedule.slots.assign(n, 0);
  schedule.runs.assign(n, 0);
  schedule.leftover_only.assign(n, 0);

  std::vector<std::size_t> active;    // priority > 1: owns decode cycles
  std::vector<std::size_t> very_low;  // priority 1: Table III leftover rule
  for (std::size_t i = 0; i < n; ++i) {
    const int l = level(priorities[i]);
    if (l > 0) schedule.runs[i] = 1;
    if (l > 1) {
      active.push_back(i);
    } else if (l == 1) {
      very_low.push_back(i);
    }
  }

  if (!active.empty()) {
    // Weighted Table II slicing. With p_min the lowest active priority,
    // context i owns w_i = 2^(p_i - p_min + 1) - 1 cycles of a slice of
    // sum(w_i) cycles, laid out as contiguous runs in ascending
    // (priority, slot) order. At N = 2 this is exactly Table II: the slice
    // is 1 + (2^(diff+1) - 1) = R = 2^(|X-Y|+1) cycles, the low-priority
    // thread owns cycle 0 and the high-priority thread the rest.
    int p_min = 8;
    for (const std::size_t i : active) {
      p_min = std::min(p_min, level(priorities[i]));
    }
    std::stable_sort(active.begin(), active.end(),
                     [&](std::size_t lhs, std::size_t rhs) {
                       return level(priorities[lhs]) < level(priorities[rhs]);
                     });
    std::uint32_t slice = 0;
    for (const std::size_t i : active) {
      slice += (1u << (level(priorities[i]) - p_min + 1)) - 1;
    }
    schedule.slice_cycles = slice;
    schedule.owner_of_pos.assign(slice, -1);
    std::uint32_t pos = 0;
    for (const std::size_t i : active) {
      const std::uint32_t weight =
          (1u << (level(priorities[i]) - p_min + 1)) - 1;
      schedule.slots[i] = weight;
      for (std::uint32_t k = 0; k < weight; ++k) {
        schedule.owner_of_pos[pos++] = static_cast<std::int32_t>(i);
      }
    }
    // VERY-LOW contexts own nothing and decode only in cycles the owners
    // leave unused ("takes what is left over", Table III).
    for (const std::size_t i : very_low) schedule.leftover_only[i] = 1;
    return schedule;
  }

  if (!very_low.empty()) {
    // Power-save mode (Table III): every running context is VERY-LOW.
    if (very_low.size() == 1) {
      // Table III (0,1): the lone running thread gets 1 of 32 cycles.
      schedule.slice_cycles = 32;
      schedule.owner_of_pos.assign(32, -1);
      schedule.owner_of_pos[0] = static_cast<std::int32_t>(very_low[0]);
      schedule.slots[very_low[0]] = 1;
    } else {
      // Table III (1,1) generalized: 1 of 64 cycles each, spread evenly
      // through the slice (positions 0 and 32 at N = 2).
      schedule.slice_cycles = 64;
      schedule.owner_of_pos.assign(64, -1);
      const std::uint32_t stride =
          64u / static_cast<std::uint32_t>(very_low.size());
      for (std::size_t j = 0; j < very_low.size(); ++j) {
        schedule.owner_of_pos[j * stride] =
            static_cast<std::int32_t>(very_low[j]);
        schedule.slots[very_low[j]] = 1;
      }
    }
    return schedule;
  }

  // All contexts off: processor stopped.
  schedule.slice_cycles = 1;
  schedule.owner_of_pos.assign(1, -1);
  return schedule;
}

DecodeShare decode_share(HwPriority pa, HwPriority pb) {
  const std::array<HwPriority, 2> pair{pa, pb};
  const DecodeSchedule schedule = decode_schedule(pair);
  DecodeShare share;
  share.slice_cycles = schedule.slice_cycles;
  share.slots_a = schedule.slots[0];
  share.slots_b = schedule.slots[1];
  share.a_runs = schedule.runs[0] != 0;
  share.b_runs = schedule.runs[1] != 0;
  share.a_leftover_only = schedule.leftover_only[0] != 0;
  share.b_leftover_only = schedule.leftover_only[1] != 0;
  return share;
}

DecodeArbiter::DecodeArbiter(std::vector<HwPriority> priorities,
                             bool work_conserving)
    : priorities_(std::move(priorities)), work_conserving_(work_conserving) {
  rebuild();
}

void DecodeArbiter::set_priority(std::size_t slot, HwPriority priority) {
  SMTBAL_REQUIRE(slot < priorities_.size(), "bad arbiter slot");
  priorities_[slot] = priority;
  rebuild();
}

void DecodeArbiter::rebuild() {
  schedule_ = decode_schedule(priorities_);
  donation_order_.resize(priorities_.size());
  for (std::size_t i = 0; i < priorities_.size(); ++i) donation_order_[i] = i;
  std::stable_sort(donation_order_.begin(), donation_order_.end(),
                   [this](std::size_t lhs, std::size_t rhs) {
                     return level(priorities_[lhs]) > level(priorities_[rhs]);
                   });
  slice_pow2_ = std::has_single_bit(schedule_.slice_cycles);
  slice_mask_ = schedule_.slice_cycles - 1;
}

int DecodeArbiter::grant(Cycle cycle,
                         std::span<const ThreadSignals> signals) const {
  SMTBAL_REQUIRE(signals.size() == priorities_.size(),
                 "one ThreadSignals per context");
  const std::uint64_t pos =
      slice_pow2_ ? (cycle & slice_mask_) : (cycle % schedule_.slice_cycles);
  const std::int32_t owner = schedule_.owner_of_pos[pos];
  if (owner < 0) return -1;  // unowned power-save gap: never reassigned
  if (signals[owner].wants) return owner;
  // The slot is given away when (a) its owner is fetch-starved, (b) the
  // taker runs under the Table III leftover rule (VERY-LOW), or (c)
  // work-conserving mode is on (ablation). A resource-blocked owner
  // otherwise keeps — and wastes — the slot. Candidates are considered
  // highest priority first.
  for (const std::size_t taker : donation_order_) {
    if (static_cast<std::int32_t>(taker) == owner) continue;
    if (!signals[taker].wants || schedule_.runs[taker] == 0) continue;
    if (!signals[owner].has_instructions ||
        schedule_.leftover_only[taker] != 0 || work_conserving_) {
      return static_cast<int>(taker);
    }
  }
  return -1;
}

}  // namespace smtbal::smt
