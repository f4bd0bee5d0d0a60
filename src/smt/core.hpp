// Cycle-level model of one POWER5-like N-way SMT core.
//
// Pipeline model (per cycle):
//   1. Decode arbitration — the DecodeArbiter picks which context owns this
//      decode cycle according to the hardware thread priorities
//      (paper Tables II/III). The granted context decodes up to
//      `decode_width` micro-ops into the shared instruction window, bounded
//      by the shared GCT occupancy and a per-thread in-flight cap.
//   2. Issue — up to `issue_width` ready ops issue oldest-first across all
//      contexts, bounded by per-class execution-unit counts. Loads/stores
//      access the memory hierarchy; their latency is the access latency.
//   3. Retire — each context retires completed ops in program order,
//      freeing shared GCT entries.
//
// Two properties of the real machine emerge from this structure and drive
// the paper's results: the favored thread's speedup saturates at its
// natural ILP/execution-unit limit, while the starved thread's slowdown is
// super-linear in the priority difference (decode cap ~ width/R plus
// shared-window hogging by the favored thread) — the paper's Case D
// "exponential penalty" observation.
//
// The number of contexts per core is a CoreConfig parameter; the default
// of 2 reproduces the paper's POWER5 exactly (see DESIGN.md §8).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "isa/stream.hpp"
#include "mem/hierarchy.hpp"
#include "smt/priority.hpp"

namespace smtbal::smt {

/// The POWER5's context count — the backward-compat default for
/// CoreConfig::threads_per_core, not a capacity limit.
inline constexpr std::uint32_t kThreadsPerCore = 2;

struct CoreConfig {
  /// SMT contexts per core. 2 is the paper's POWER5; 4/8 model SMT4/SMT8
  /// successors through the generalized weighted decode arbiter.
  std::uint32_t threads_per_core = kThreadsPerCore;
  std::uint32_t decode_width = 5;
  std::uint32_t issue_width = 8;
  /// Shared global completion table: total in-flight ops across contexts.
  /// POWER5's GCT tracks 20 groups of up to 5 instructions; we track
  /// individual ops, hence 100 entries.
  std::uint32_t gct_entries = 100;
  /// Per-thread in-flight cap (rename/dispatch buffers).
  std::uint32_t per_thread_inflight = 100;
  /// Execution units: FXU, FPU, LSU (loads+stores), BRU.
  std::uint32_t fxu_units = 2;
  std::uint32_t fpu_units = 2;
  std::uint32_t lsu_units = 2;
  std::uint32_t bru_units = 2;
  /// Extra front-end cycles lost after a mispredicted branch resolves.
  std::uint32_t mispredict_penalty = 12;
  /// POWER5 dispatches instructions in *groups* of up to decode_width ops;
  /// group formation breaks at branches (a branch must be the last slot)
  /// and, with this probability in [0,1), after any op (cracked/microcoded
  /// ops, read-after-write pairing limits). The granted thread dispatches
  /// ONE group per decode cycle, so the effective per-cycle decode
  /// bandwidth is the mean group size (~2-3), not the raw width. This is
  /// what makes a starved thread's 1-in-R cycles so expensive on the real
  /// machine. Exactly 1.0 is rejected: every group would break after its
  /// first op, which is a degenerate front end rather than a model.
  double group_break_prob = 0.30;
  /// Offer unused decode slots to the other threads (ablation only; the
  /// real POWER5 slicing is strict).
  bool work_conserving_decode = false;

  void validate() const;
  [[nodiscard]] bool operator==(const CoreConfig&) const = default;
};

/// Per-thread performance counters for one measurement window.
struct ThreadPerf {
  InstrCount retired = 0;
  Cycle decode_cycles_granted = 0;  ///< cycles this thread decoded >=1 op
  Cycle decode_cycles_wanted = 0;   ///< cycles it had something to decode
  InstrCount loads = 0;
  InstrCount branches = 0;
  InstrCount mispredicts = 0;

  [[nodiscard]] double ipc(Cycle window) const {
    return window ? static_cast<double>(retired) / static_cast<double>(window)
                  : 0.0;
  }
};

class Core {
 public:
  /// `core_index` selects this core's private L1 in the shared hierarchy.
  Core(const CoreConfig& config, mem::Hierarchy& hierarchy,
       std::uint32_t core_index);

  /// Binds an instruction stream to a context (nullptr = context idle).
  /// The stream must outlive the core or be unbound first.
  void bind_stream(ThreadSlot slot, isa::StreamGen* stream);

  void set_priority(ThreadSlot slot, HwPriority priority);
  [[nodiscard]] HwPriority priority(ThreadSlot slot) const;

  /// Advances the core by one cycle.
  void step();

  /// Advances the core by `cycles` cycles.
  void run(Cycle cycles);

  /// True when no context has a bound stream. An idle core's window is
  /// empty (unbinding clears it), so its step() only advances the clock.
  [[nodiscard]] bool idle() const;

  /// run(cycles) for an idle core, without stepping: the clock advances
  /// and nothing else changes, exactly as `cycles` step() calls would.
  void skip_idle(Cycle cycles);

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] const ThreadPerf& perf(ThreadSlot slot) const;
  void reset_perf();

  /// Clears all in-flight state (streams stay bound, caches untouched).
  void drain();

  [[nodiscard]] std::uint32_t gct_used() const { return gct_used_; }
  [[nodiscard]] const CoreConfig& config() const { return config_; }

  /// True when `slot` could decode right now: context bound, fetch buffer
  /// non-empty, no pending branch redirect, window and GCT space left.
  [[nodiscard]] bool decode_ready(ThreadSlot slot) const;

  /// Next decode sequence number of `slot` (introspection; drain() and
  /// bind_stream() restart the numbering).
  [[nodiscard]] std::uint64_t next_seq(ThreadSlot slot) const;

 private:
  /// "No candidate" sentinel for ready-mask scans.
  static constexpr std::uint32_t kNoneSlot = 0xFFFFFFFFu;
  /// issue() pick-loop marker: this thread's next candidate needs a rescan.
  static constexpr std::uint32_t kScanPending = 0xFFFFFFFEu;

  /// The window is stored structure-of-arrays: the fields issue()'s
  /// per-cycle scan reads live in a compact HotSlot, everything touched
  /// only when an entry is actually decoded, picked, issued or retired
  /// lives in the parallel ColdSlot array, and issue eligibility is a
  /// per-slot bitmask so the candidate scan is word-wise instead of a
  /// pointer chase.
  struct HotSlot {
    Cycle decode_cycle = 0;
    /// Head of this entry's consumer chain: entries whose register
    /// dependency points at this one and which were decoded before it
    /// issued. They wait (ready bit clear) until this entry issues, at
    /// which point they move to the wake wheel at its completion cycle.
    std::uint32_t consumer_head = kNoneSlot;
    /// Link of whichever list a waiting entry is on: its producer's
    /// consumer chain, or a wake-wheel bucket (never both at once).
    std::uint32_t next_consumer = kNoneSlot;
    bool issued = false;
  };

  struct ColdSlot {
    isa::MicroOp op;
    std::uint64_t seq = 0;
    Cycle completion = 0;  ///< valid once issued
  };

  /// Per-context state. The in-flight window is a fixed-capacity ring over
  /// this thread's slice of the shared `window_arena_` (program order,
  /// `head` = oldest); `issued` is monotone until retire, so the unissued
  /// entries form a suffix-free sublist that the intrusive list tracks
  /// exactly. This replaces a std::deque whose per-cycle skip-issued scan
  /// dominated the whole simulator's profile.
  struct ThreadState {
    isa::StreamGen* stream = nullptr;
    HwPriority priority = kDefaultPriority;
    HotSlot* hot = nullptr;    ///< this thread's arena slice (ring storage)
    ColdSlot* cold = nullptr;  ///< parallel array, same indexing
    /// One bit per ring slot: set while the entry is unissued and its
    /// register dependency is satisfied (i.e. it can issue this cycle).
    std::uint64_t* ready = nullptr;
    /// Population count of `ready`, maintained by set_ready/clear_ready so
    /// issue() can skip threads — and whole cycles — with no candidates.
    std::uint32_t ready_count = 0;
    /// Wake wheel: bucket c & wheel_mask_ lists (through next_consumer)
    /// the entries whose producer completes at cycle c. Every wait is
    /// shorter than the wheel, so a bucket holds one cycle's wakes.
    std::uint32_t* wheel = nullptr;
    std::uint32_t parked = 0;  ///< entries on the wheel
    std::uint32_t head = 0;   ///< ring index of the oldest entry
    std::uint32_t count = 0;  ///< live entries in the ring
    std::uint64_t next_seq = 0;
    /// Pending mispredicted branch blocks further decode until it issues
    /// and its redirect completes.
    bool mispredict_pending = false;
    std::uint64_t pending_branch_seq = 0;
    Cycle redirect_until = 0;
    /// Front-end state: true when the fetch buffer is empty this cycle
    /// (drawn per cycle from the kernel's fetch_gap_fraction).
    bool fetch_empty = false;
    /// Cached kernel fetch_gap_fraction (StreamGen params are immutable,
    /// so caching at bind time changes no RNG draw).
    double fetch_gap = 0.0;
    Rng front_end_rng{0};
    ThreadPerf perf;
  };

  [[nodiscard]] bool has_instructions(const ThreadState& thread) const;
  [[nodiscard]] bool can_decode(const ThreadState& thread) const;
  void decode_thread(ThreadState& thread);
  void issue();
  void issue_op(ThreadState& thread, std::uint32_t slot);
  void retire(ThreadState& thread);
  /// Window slot of `slot`'s register producer; kNoneSlot when it has
  /// none or it has retired.
  [[nodiscard]] std::uint32_t producer_of(const ThreadState& thread,
                                          std::uint32_t slot) const;
  void clear_window(ThreadState& thread);
  /// Moves the entries waking at now_ into the ready mask.
  void process_wakes(ThreadState& thread);
  /// Puts `slot` on the wheel bucket of cycle `at` (now_ < at).
  void park(ThreadState& thread, std::uint32_t slot, Cycle at);
  /// Idempotent ready-bit updates that keep `ready_count` exact.
  static void set_ready(ThreadState& thread, std::uint32_t slot) {
    std::uint64_t& word = thread.ready[slot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    thread.ready_count += static_cast<std::uint32_t>((word & bit) == 0);
    word |= bit;
  }
  static void clear_ready(ThreadState& thread, std::uint32_t slot) {
    std::uint64_t& word = thread.ready[slot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    thread.ready_count -= static_cast<std::uint32_t>((word & bit) != 0);
    word &= ~bit;
  }
  /// First ready slot at program-order position >= pos (pos updated to the
  /// found position); kNoneSlot when none remain.
  [[nodiscard]] std::uint32_t next_ready(const ThreadState& thread,
                                         std::uint32_t& pos) const;
  [[nodiscard]] static std::uint32_t scan_bits(const std::uint64_t* words,
                                               std::uint32_t lo,
                                               std::uint32_t hi);

  CoreConfig config_;
  mem::Hierarchy& hierarchy_;
  std::uint32_t core_index_;
  DecodeArbiter arbiter_;
  std::vector<ThreadState> threads_;
  /// Backing store for every thread's window ring: thread t owns slots
  /// [t * (ring_mask_ + 1), (t + 1) * (ring_mask_ + 1)). One allocation
  /// each, never resized after construction.
  std::vector<HotSlot> hot_arena_;
  std::vector<ColdSlot> cold_arena_;
  std::vector<std::uint64_t> ready_arena_;
  std::vector<std::uint32_t> wheel_arena_;
  std::uint32_t ring_mask_ = 0;    ///< ring capacity - 1 (power of two)
  std::uint32_t ready_words_ = 0;  ///< 64-bit words per thread in ready_arena_
  std::uint32_t wheel_mask_ = 0;  ///< wheel buckets - 1 (> longest wait)
  std::uint32_t gct_used_ = 0;
  Cycle now_ = 0;
  /// Per-cycle scratch (sized num_threads once; step() is the hot path).
  std::vector<ThreadSignals> signals_;
  std::vector<std::uint32_t> issue_cursor_;
  std::vector<std::uint32_t> issue_candidate_;
};

}  // namespace smtbal::smt
