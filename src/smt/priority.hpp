// IBM POWER5 hardware thread priorities (paper §V, Tables I-III).
//
// Each SMT context of a POWER5 core carries a hardware thread priority in
// 0..7. For two contexts the core divides its decode cycles between them in
// time-slices of R = 2^(|X-Y|+1) cycles: the lower-priority thread receives
// 1 of those cycles and the higher-priority thread R-1 (Table II). When
// either priority is 0 or 1 the special rules of Table III apply. This
// header implements both rules exactly, plus the Table I metadata
// (priority names, required privilege level, or-nop encodings).
//
// The arbiter itself is N-way: a core may carry any number of contexts, and
// the decode slice is built from per-context weights that reduce *exactly*
// to Tables II/III when N = 2 (see DESIGN.md §8 for the generalization and
// what is extrapolated beyond the paper for N > 2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace smtbal::smt {

/// Hardware thread priority levels (paper Table I).
enum class HwPriority : std::uint8_t {
  kOff = 0,         ///< thread shut off (hypervisor only)
  kVeryLow = 1,     ///< supervisor
  kLow = 2,         ///< user
  kMediumLow = 3,   ///< user
  kMedium = 4,      ///< user; the default priority
  kMediumHigh = 5,  ///< supervisor
  kHigh = 6,        ///< supervisor
  kVeryHigh = 7,    ///< hypervisor; ST mode (other thread off)
};

inline constexpr HwPriority kDefaultPriority = HwPriority::kMedium;

/// Who may set a given priority (paper Table I).
enum class PrivilegeLevel : std::uint8_t {
  kUser = 0,
  kSupervisor = 1,
  kHypervisor = 2,
};

[[nodiscard]] std::string_view to_string(HwPriority priority);
[[nodiscard]] std::string_view to_string(PrivilegeLevel level);

/// Lowest privilege level allowed to set `priority` (Table I).
[[nodiscard]] PrivilegeLevel required_privilege(HwPriority priority);

/// True if code running at `level` may set `priority`.
[[nodiscard]] bool can_set(PrivilegeLevel level, HwPriority priority);

/// The `or Rx,Rx,Rx` no-op encoding that sets `priority` (Table I), e.g.
/// "or 31,31,31" for VERY LOW. Priority 0 has no or-nop form (nullopt).
[[nodiscard]] std::optional<std::string_view> or_nop_encoding(HwPriority priority);

[[nodiscard]] constexpr int level(HwPriority p) { return static_cast<int>(p); }

/// Converts a raw integer (e.g. from the /proc interface) to a priority.
/// Throws InvalidArgument outside 0..7.
[[nodiscard]] HwPriority priority_from_int(int value);

/// How the decode stage divides cycles between two contexts given their
/// priorities. `slots_a` of every `slice_cycles` decode cycles belong to
/// thread A and `slots_b` to thread B (the rest, if any, are idle). This is
/// the 2-context view of the N-way DecodeSchedule below.
struct DecodeShare {
  std::uint32_t slice_cycles = 2;  ///< R
  std::uint32_t slots_a = 1;
  std::uint32_t slots_b = 1;
  bool a_runs = true;              ///< false when thread A is shut off
  bool b_runs = true;
  /// Table III "takes what is left over": this thread may only decode in
  /// cycles the other thread cannot use.
  bool a_leftover_only = false;
  bool b_leftover_only = false;

  [[nodiscard]] double fraction_a() const {
    return static_cast<double>(slots_a) / static_cast<double>(slice_cycles);
  }
  [[nodiscard]] double fraction_b() const {
    return static_cast<double>(slots_b) / static_cast<double>(slice_cycles);
  }
};

/// Computes the decode share for a pair of priorities, implementing
/// Table II for priorities > 1 and Table III otherwise.
[[nodiscard]] DecodeShare decode_share(HwPriority a, HwPriority b);

/// N-way decode-slice schedule: which context owns each decode cycle of a
/// repeating slice. For contexts with priority > 1 the slice is built from
/// per-context weights w_i = 2^(p_i - p_min + 1) - 1 (p_min = lowest
/// priority > 1 present); contexts own contiguous runs of cycles in
/// ascending (priority, slot) order, so at N = 2 the layout is exactly the
/// paper's: the low-priority thread owns cycle 0 of each R = 2^(|X-Y|+1)
/// slice and the high-priority thread the other R-1. VERY-LOW (1) contexts
/// own no cycles and decode on leftovers; OFF (0) contexts never decode.
/// When every running context is VERY-LOW the power-save rule applies
/// (1-of-64 cycles each, 1-of-32 when only one context runs).
struct DecodeSchedule {
  std::uint32_t slice_cycles = 1;
  /// Owned decode cycles per slice, per context.
  std::vector<std::uint32_t> slots;
  /// Context participates at all (priority > 0).
  std::vector<std::uint8_t> runs;
  /// Table III leftover rule: may only take cycles the owner cannot use.
  std::vector<std::uint8_t> leftover_only;
  /// Owning context for each cycle position of the slice; -1 = unowned
  /// (power-save gap — never granted, never donated).
  std::vector<std::int32_t> owner_of_pos;

  [[nodiscard]] double fraction(std::size_t context) const {
    return static_cast<double>(slots[context]) /
           static_cast<double>(slice_cycles);
  }
};

/// Builds the N-way schedule for one core's contexts (slot order). Accepts
/// 1..64 contexts; throws InvalidArgument otherwise.
[[nodiscard]] DecodeSchedule decode_schedule(
    std::span<const HwPriority> priorities);

/// Which thread (if any) owns a given decode cycle (2-context view).
enum class DecodeGrant : std::uint8_t { kNone, kThreadA, kThreadB };

/// Per-cycle decode readiness of one context, as seen by the arbiter.
struct ThreadSignals {
  /// The thread can decode this cycle (instructions available AND shared
  /// resources available).
  bool wants = false;
  /// The thread has instructions to decode (fetch buffer non-empty, no
  /// pending branch redirect, context bound). When the slot owner has no
  /// instructions the slot is *donated* to a core-mate — the decode
  /// stage has literally nothing to do for the owner. A slot whose owner
  /// has instructions but is resource-blocked (GCT full) idles instead:
  /// dispatch is stalled and the slot is not reassigned.
  bool has_instructions = false;
};

/// Cycle-accurate decode-slot arbiter for one core with N contexts.
///
/// Each decode cycle maps to a position in the repeating DecodeSchedule
/// slice; the owning context decodes if it can. Slots whose owner is
/// fetch-starved are donated to the highest-priority core-mate that can
/// decode (ties broken by slot index); slots whose owner is
/// resource-blocked idle. With `work_conserving` enabled resource-blocked
/// slots are donated too (ablation only — it largely defeats the
/// prioritisation, see bench_ablation_interference).
class DecodeArbiter {
 public:
  /// N-way: one priority per context, slot order.
  explicit DecodeArbiter(std::vector<HwPriority> priorities,
                         bool work_conserving = false);
  /// 2-context convenience constructor (the paper's POWER5 shape).
  DecodeArbiter(HwPriority a, HwPriority b, bool work_conserving = false);

  void set_priorities(std::vector<HwPriority> priorities);
  void set_priorities(HwPriority a, HwPriority b);
  /// Updates a single context's priority, rebuilding the schedule.
  void set_priority(std::size_t slot, HwPriority priority);

  [[nodiscard]] std::size_t num_contexts() const { return priorities_.size(); }
  [[nodiscard]] HwPriority priority(std::size_t slot) const;
  [[nodiscard]] HwPriority priority_a() const { return priorities_[0]; }
  [[nodiscard]] HwPriority priority_b() const { return priorities_[1]; }
  [[nodiscard]] const DecodeSchedule& schedule() const { return schedule_; }
  /// 2-context share view; requires num_contexts() == 2.
  [[nodiscard]] const DecodeShare& share() const;

  /// Decides which context decodes in `cycle`; -1 when the cycle idles.
  /// `signals` must have one entry per context.
  [[nodiscard]] int grant(Cycle cycle,
                          std::span<const ThreadSignals> signals) const;
  /// 2-context convenience wrapper over the N-way grant.
  [[nodiscard]] DecodeGrant grant(Cycle cycle, ThreadSignals a,
                                  ThreadSignals b) const;

 private:
  void rebuild();

  std::vector<HwPriority> priorities_;
  bool work_conserving_;
  DecodeSchedule schedule_;
  DecodeShare share_;  ///< pair view, maintained when num_contexts() == 2
  /// Donation candidates, highest priority first (ties: lowest slot).
  std::vector<std::size_t> donation_order_;
  /// Fast-path grant state, precomputed by rebuild(): every 2-context
  /// Table II/III slice length is a power of two (R = 2^(|X-Y|+1), 32, 64),
  /// so the per-cycle slice position is a mask instead of a 64-bit modulo
  /// on the dominant path. Non-power-of-two N-way slices fall back.
  std::uint64_t slice_mask_ = 0;
  bool slice_pow2_ = false;
};

}  // namespace smtbal::smt
