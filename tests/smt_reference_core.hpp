// A frozen copy of smt::Core as it was before the wake wheel: dependency
// waits carry a per-entry stall_until bound, short ones stay in the ready
// mask and are skipped while the bound holds, and long ones (more than
// kSleepHorizon cycles) sleep on a per-thread min-heap of wake events. The
// core differential test steps it in lockstep with smt::Core and compares
// their observable state every cycle. Only the test uses it; it is kept as
// it was, not maintained alongside Core.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "isa/stream.hpp"
#include "mem/hierarchy.hpp"
#include "smt/core.hpp"
#include "smt/priority.hpp"

namespace smtbal::smt::reference {

class ReferenceCore {
 public:
  ReferenceCore(const CoreConfig& config, mem::Hierarchy& hierarchy,
                std::uint32_t core_index)
      : config_(config),
        hierarchy_(hierarchy),
        core_index_(core_index),
        arbiter_(std::vector<HwPriority>(config.threads_per_core,
                                         kDefaultPriority),
                 config.work_conserving_decode),
        threads_(config.threads_per_core),
        signals_(config.threads_per_core),
        issue_cursor_(config.threads_per_core, 0),
        issue_candidate_(config.threads_per_core, kScanPending) {
    config_.validate();
    std::size_t capacity = 1;
    while (capacity < config_.per_thread_inflight) capacity <<= 1;
    ring_mask_ = static_cast<std::uint32_t>(capacity - 1);
    ready_words_ = static_cast<std::uint32_t>((capacity + 63) / 64);
    hot_arena_.resize(capacity * threads_.size());
    cold_arena_.resize(capacity * threads_.size());
    ready_arena_.resize(std::size_t{ready_words_} * threads_.size());
    for (std::size_t t = 0; t < threads_.size(); ++t) {
      threads_[t].hot = hot_arena_.data() + capacity * t;
      threads_[t].cold = cold_arena_.data() + capacity * t;
      threads_[t].ready = ready_arena_.data() + std::size_t{ready_words_} * t;
    }
  }

  void bind_stream(ThreadSlot slot, isa::StreamGen* stream) {
    ThreadState& thread = threads_[slot.value()];
    thread.stream = stream;
    gct_used_ -= thread.count;
    clear_window(thread);
    thread.mispredict_pending = false;
    thread.pending_branch_seq = 0;
    thread.redirect_until = 0;
    thread.fetch_empty = false;
    thread.fetch_gap =
        stream != nullptr ? stream->params().fetch_gap_fraction : 0.0;
    thread.next_seq = 0;
    thread.front_end_rng.reseed(0xFE7C4ULL ^
                                (std::uint64_t{core_index_} << 20) ^
                                (std::uint64_t{slot.value()} << 16) ^
                                (stream != nullptr ? stream->kernel_id() : 0u));
  }

  void set_priority(ThreadSlot slot, HwPriority priority) {
    threads_[slot.value()].priority = priority;
    arbiter_.set_priority(slot.value(), priority);
  }

  void step() {
    for (ThreadState& thread : threads_) {
      retire(thread);
      thread.fetch_empty = thread.fetch_gap > 0.0 &&
                           thread.front_end_rng.chance(thread.fetch_gap);
    }
    if (gct_used_ < config_.gct_entries) {
      for (std::size_t t = 0; t < threads_.size(); ++t) {
        const bool has = has_instructions(threads_[t]);
        const bool wants =
            has && threads_[t].count < config_.per_thread_inflight;
        signals_[t] = ThreadSignals{wants, has};
        if (wants) ++threads_[t].perf.decode_cycles_wanted;
      }
      const int granted = arbiter_.grant(now_, signals_);
      if (granted >= 0) {
        ThreadState& thread = threads_[static_cast<std::size_t>(granted)];
        decode_thread(thread);
        ++thread.perf.decode_cycles_granted;
      }
    }
    issue();
    ++now_;
  }

  void drain() {
    for (ThreadState& thread : threads_) {
      clear_window(thread);
      thread.mispredict_pending = false;
      thread.pending_branch_seq = 0;
      thread.redirect_until = 0;
      thread.fetch_empty = false;
      thread.next_seq = 0;
    }
    gct_used_ = 0;
    now_ = 0;
  }

  void reset_perf() {
    for (ThreadState& thread : threads_) thread.perf = ThreadPerf{};
  }

  [[nodiscard]] const ThreadPerf& perf(ThreadSlot slot) const {
    return threads_[slot.value()].perf;
  }
  [[nodiscard]] std::uint64_t next_seq(ThreadSlot slot) const {
    return threads_[slot.value()].next_seq;
  }
  [[nodiscard]] std::uint32_t gct_used() const { return gct_used_; }
  /// Waits that went to the wake heap (longer than kSleepHorizon).
  [[nodiscard]] std::uint64_t long_sleeps() const { return long_sleeps_; }

 private:
  static constexpr std::uint32_t kNoneSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kScanPending = 0xFFFFFFFEu;
  static constexpr Cycle kSleepHorizon = 8;

  struct HotSlot {
    Cycle decode_cycle = 0;
    Cycle stall_until = 0;
    std::uint32_t consumer_head = kNoneSlot;
    std::uint32_t next_consumer = kNoneSlot;
    bool issued = false;
  };
  struct ColdSlot {
    isa::MicroOp op;
    std::uint64_t seq = 0;
    Cycle completion = 0;
  };
  struct WakeEvent {
    Cycle at = 0;
    std::uint32_t slot = 0;
  };
  struct ThreadState {
    isa::StreamGen* stream = nullptr;
    HwPriority priority = kDefaultPriority;
    HotSlot* hot = nullptr;
    ColdSlot* cold = nullptr;
    std::uint64_t* ready = nullptr;
    std::uint32_t ready_count = 0;
    std::vector<WakeEvent> wakes;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    std::uint64_t next_seq = 0;
    bool mispredict_pending = false;
    std::uint64_t pending_branch_seq = 0;
    Cycle redirect_until = 0;
    bool fetch_empty = false;
    double fetch_gap = 0.0;
    Rng front_end_rng{0};
    ThreadPerf perf;
  };

  static bool later(const WakeEvent& a, const WakeEvent& b) {
    return a.at > b.at;
  }
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

  void clear_window(ThreadState& thread) {
    thread.head = 0;
    thread.count = 0;
    thread.wakes.clear();
    std::fill_n(thread.ready, ready_words_, 0);
    thread.ready_count = 0;
  }

  void process_wakes(ThreadState& thread) {
    while (!thread.wakes.empty() && thread.wakes.front().at <= now_) {
      std::pop_heap(thread.wakes.begin(), thread.wakes.end(), later);
      const std::uint32_t slot = thread.wakes.back().slot;
      thread.wakes.pop_back();
      set_ready(thread, slot);
    }
  }

  void sleep_entry(ThreadState& thread, std::uint32_t slot, Cycle until) {
    thread.hot[slot].stall_until = until;
    clear_ready(thread, slot);
    thread.wakes.push_back(WakeEvent{until, slot});
    std::push_heap(thread.wakes.begin(), thread.wakes.end(), later);
    ++long_sleeps_;
  }

  static std::uint32_t scan_bits(const std::uint64_t* words, std::uint32_t lo,
                                 std::uint32_t hi) {
    std::uint32_t w = lo >> 6;
    const std::uint32_t last = (hi - 1) >> 6;
    std::uint64_t word = words[w] & (~std::uint64_t{0} << (lo & 63));
    while (true) {
      if (word != 0) {
        const auto bit =
            (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
        return bit < hi ? bit : kNoneSlot;
      }
      if (w == last) return kNoneSlot;
      word = words[++w];
    }
  }

  std::uint32_t next_ready(const ThreadState& thread, std::uint32_t& pos) const {
    const std::uint32_t capacity = ring_mask_ + 1;
    while (pos < thread.count) {
      const std::uint32_t start = (thread.head + pos) & ring_mask_;
      const std::uint32_t run = std::min(capacity - start, thread.count - pos);
      const std::uint32_t found = scan_bits(thread.ready, start, start + run);
      if (found == kNoneSlot) {
        pos += run;
        continue;
      }
      pos += found - start;
      if (thread.hot[found].stall_until > now_) {
        ++pos;
        continue;
      }
      return found;
    }
    return kNoneSlot;
  }

  bool has_instructions(const ThreadState& thread) const {
    return thread.stream != nullptr && !thread.mispredict_pending &&
           now_ >= thread.redirect_until && !thread.fetch_empty;
  }

  void decode_thread(ThreadState& thread) {
    for (std::uint32_t i = 0; i < config_.decode_width; ++i) {
      if (thread.count >= config_.per_thread_inflight) break;
      if (gct_used_ >= config_.gct_entries) break;
      const std::uint32_t slot = (thread.head + thread.count) & ring_mask_;
      HotSlot& hot = thread.hot[slot];
      ColdSlot& cold = thread.cold[slot];
      cold.op = thread.stream->next();
      cold.seq = thread.next_seq++;
      cold.completion = 0;
      hot.decode_cycle = now_;
      hot.stall_until = 0;
      hot.issued = false;
      set_ready(thread, slot);
      ++thread.count;
      ++gct_used_;
      hot.consumer_head = kNoneSlot;
      if (cold.op.dep_dist != 0 && cold.op.dep_dist <= cold.seq) {
        const std::uint64_t producer_seq = cold.seq - cold.op.dep_dist;
        const std::uint64_t front_seq = thread.cold[thread.head].seq;
        if (producer_seq >= front_seq) {
          const std::uint32_t producer =
              (thread.head +
               static_cast<std::uint32_t>(producer_seq - front_seq)) &
              ring_mask_;
          if (!thread.hot[producer].issued) {
            clear_ready(thread, slot);
            hot.next_consumer = thread.hot[producer].consumer_head;
            thread.hot[producer].consumer_head = slot;
          } else if (const Cycle done = thread.cold[producer].completion;
                     done > now_ + kSleepHorizon) {
            sleep_entry(thread, slot, done);
          } else if (done > now_) {
            hot.stall_until = done;
          }
        }
      }
      if (cold.op.cls == isa::OpClass::kBranch) {
        ++thread.perf.branches;
        if (cold.op.mispredicted) {
          ++thread.perf.mispredicts;
          thread.mispredict_pending = true;
          thread.pending_branch_seq = cold.seq;
        }
        break;
      }
      if (config_.group_break_prob > 0.0 &&
          thread.front_end_rng.chance(config_.group_break_prob)) {
        break;
      }
    }
  }

  void issue_op(ThreadState& thread, std::uint32_t slot) {
    HotSlot& hot = thread.hot[slot];
    ColdSlot& cold = thread.cold[slot];
    std::uint32_t latency = cold.op.exec_latency;
    switch (cold.op.cls) {
      case isa::OpClass::kLoad:
        latency = hierarchy_.access(core_index_, cold.op.address, false).latency;
        ++thread.perf.loads;
        break;
      case isa::OpClass::kStore:
        (void)hierarchy_.access(core_index_, cold.op.address, true);
        latency = 1;
        break;
      default:
        break;
    }
    hot.issued = true;
    cold.completion = now_ + std::max<std::uint32_t>(latency, 1);
    clear_ready(thread, slot);
    for (std::uint32_t consumer = hot.consumer_head; consumer != kNoneSlot;) {
      const std::uint32_t next = thread.hot[consumer].next_consumer;
      if (cold.completion > now_ + kSleepHorizon) {
        sleep_entry(thread, consumer, cold.completion);
      } else {
        thread.hot[consumer].stall_until = cold.completion;
        set_ready(thread, consumer);
      }
      consumer = next;
    }
    hot.consumer_head = kNoneSlot;
    if (thread.mispredict_pending && cold.seq == thread.pending_branch_seq) {
      thread.mispredict_pending = false;
      thread.redirect_until = cold.completion + config_.mispredict_penalty;
    }
  }

  void issue() {
    std::uint32_t fxu = config_.fxu_units;
    std::uint32_t fpu = config_.fpu_units;
    std::uint32_t lsu = config_.lsu_units;
    std::uint32_t bru = config_.bru_units;
    std::uint32_t budget = config_.issue_width;
    const std::size_t num = threads_.size();
    std::uint32_t candidates = 0;
    for (std::size_t t = 0; t < num; ++t) {
      process_wakes(threads_[t]);
      candidates += threads_[t].ready_count;
    }
    if (candidates == 0) return;

    const auto attempt = [&](ThreadState& thread, std::uint32_t slot) {
      std::uint32_t* pool = nullptr;
      switch (thread.cold[slot].op.cls) {
        case isa::OpClass::kFixed: pool = &fxu; break;
        case isa::OpClass::kFloat: pool = &fpu; break;
        case isa::OpClass::kLoad:
        case isa::OpClass::kStore: pool = &lsu; break;
        case isa::OpClass::kBranch: pool = &bru; break;
      }
      if (*pool == 0) return;
      --*pool;
      --budget;
      issue_op(thread, slot);
    };

    const std::size_t first = static_cast<std::size_t>(now_ % num);
    if (num == 2) {
      ThreadState& ta = threads_[first];
      ThreadState& tb = threads_[first ^ 1];
      std::uint32_t pos_a = 0;
      std::uint32_t pos_b = 0;
      std::uint32_t cand_a =
          ta.ready_count != 0 ? next_ready(ta, pos_a) : kNoneSlot;
      std::uint32_t cand_b =
          tb.ready_count != 0 ? next_ready(tb, pos_b) : kNoneSlot;
      while (budget > 0) {
        if (cand_a != kNoneSlot &&
            (cand_b == kNoneSlot ||
             ta.hot[cand_a].decode_cycle <= tb.hot[cand_b].decode_cycle)) {
          attempt(ta, cand_a);
          ++pos_a;
          cand_a = ta.ready_count != 0 ? next_ready(ta, pos_a) : kNoneSlot;
        } else if (cand_b != kNoneSlot) {
          attempt(tb, cand_b);
          ++pos_b;
          cand_b = tb.ready_count != 0 ? next_ready(tb, pos_b) : kNoneSlot;
        } else {
          break;
        }
      }
      return;
    }

    for (std::size_t t = 0; t < num; ++t) {
      issue_cursor_[t] = 0;
      issue_candidate_[t] = kScanPending;
    }
    while (budget > 0) {
      int pick = -1;
      Cycle best = ~Cycle{0};
      std::size_t t = first;
      for (std::size_t i = 0; i < num; ++i, t = (t + 1 == num ? 0 : t + 1)) {
        if (issue_candidate_[t] == kScanPending) {
          issue_candidate_[t] = threads_[t].ready_count != 0
                                    ? next_ready(threads_[t], issue_cursor_[t])
                                    : kNoneSlot;
        }
        const std::uint32_t cur = issue_candidate_[t];
        if (cur == kNoneSlot) continue;
        if (threads_[t].hot[cur].decode_cycle < best) {
          best = threads_[t].hot[cur].decode_cycle;
          pick = static_cast<int>(t);
        }
      }
      if (pick < 0) break;
      const auto p = static_cast<std::size_t>(pick);
      const std::uint32_t slot = issue_candidate_[p];
      ++issue_cursor_[p];
      issue_candidate_[p] = kScanPending;
      attempt(threads_[p], slot);
    }
  }

  void retire(ThreadState& thread) {
    while (thread.count > 0) {
      if (!thread.hot[thread.head].issued ||
          thread.cold[thread.head].completion > now_) {
        break;
      }
      thread.head = (thread.head + 1) & ring_mask_;
      --thread.count;
      --gct_used_;
      ++thread.perf.retired;
    }
  }

  CoreConfig config_;
  mem::Hierarchy& hierarchy_;
  std::uint32_t core_index_;
  DecodeArbiter arbiter_;
  std::vector<ThreadState> threads_;
  std::vector<HotSlot> hot_arena_;
  std::vector<ColdSlot> cold_arena_;
  std::vector<std::uint64_t> ready_arena_;
  std::uint32_t ring_mask_ = 0;
  std::uint32_t ready_words_ = 0;
  std::uint32_t gct_used_ = 0;
  Cycle now_ = 0;
  std::vector<ThreadSignals> signals_;
  std::vector<std::uint32_t> issue_cursor_;
  std::vector<std::uint32_t> issue_candidate_;
  std::uint64_t long_sleeps_ = 0;
};

}  // namespace smtbal::smt::reference
