#include "smt/core.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace smtbal::smt {

void CoreConfig::validate() const {
  SMTBAL_REQUIRE(threads_per_core >= 1 && threads_per_core <= 64,
                 "threads_per_core must be in 1..64");
  SMTBAL_REQUIRE(decode_width > 0, "decode_width must be positive");
  SMTBAL_REQUIRE(issue_width > 0, "issue_width must be positive");
  SMTBAL_REQUIRE(gct_entries >= decode_width,
                 "GCT must hold at least one decode group");
  SMTBAL_REQUIRE(per_thread_inflight > 0, "per_thread_inflight must be positive");
  SMTBAL_REQUIRE(per_thread_inflight <= (1u << 24),
                 "per_thread_inflight larger than any plausible window");
  SMTBAL_REQUIRE(fxu_units > 0 && fpu_units > 0 && lsu_units > 0 && bru_units > 0,
                 "every execution-unit class needs at least one unit");
  SMTBAL_REQUIRE(group_break_prob >= 0.0 && group_break_prob < 1.0,
                 "group_break_prob must be in [0,1)");
}

Core::Core(const CoreConfig& config, mem::Hierarchy& hierarchy,
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
  SMTBAL_REQUIRE(core_index < hierarchy.config().num_cores,
                 "core index outside the hierarchy");
  // Power-of-two ring capacity so the window wraps with a mask, not a
  // modulo, on the per-cycle path.
  std::size_t capacity = 1;
  while (capacity < config_.per_thread_inflight) capacity <<= 1;
  ring_mask_ = static_cast<std::uint32_t>(capacity - 1);
  ready_words_ = static_cast<std::uint32_t>((capacity + 63) / 64);
  hot_arena_.resize(capacity * threads_.size());
  cold_arena_.resize(capacity * threads_.size());
  ready_arena_.resize(std::size_t{ready_words_} * threads_.size());
  // The longest wait: an exec_latency (<= 255) or a load missing every level.
  const std::size_t buckets = std::bit_ceil(
      std::max<std::uint64_t>(255, hierarchy.config().miss_latency()) + 1);
  wheel_mask_ = static_cast<std::uint32_t>(buckets - 1);
  wheel_arena_.assign(buckets * threads_.size(), kNoneSlot);
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    threads_[t].hot = hot_arena_.data() + capacity * t;
    threads_[t].cold = cold_arena_.data() + capacity * t;
    threads_[t].ready = ready_arena_.data() + std::size_t{ready_words_} * t;
    threads_[t].wheel = wheel_arena_.data() + buckets * t;
  }
}

void Core::clear_window(ThreadState& thread) {
  thread.head = 0;
  thread.count = 0;
  if (thread.parked != 0) {
    std::fill_n(thread.wheel, wheel_mask_ + 1, kNoneSlot);
    thread.parked = 0;
  }
  std::fill_n(thread.ready, ready_words_, 0);
  thread.ready_count = 0;
}

void Core::process_wakes(ThreadState& thread) {
  std::uint32_t& bucket = thread.wheel[now_ & wheel_mask_];
  for (std::uint32_t slot = bucket; slot != kNoneSlot;
       slot = thread.hot[slot].next_consumer) {
    set_ready(thread, slot);
    --thread.parked;
  }
  bucket = kNoneSlot;
}

void Core::park(ThreadState& thread, std::uint32_t slot, Cycle at) {
  SMTBAL_DCHECK(at > now_ && at - now_ <= wheel_mask_);
  std::uint32_t& bucket = thread.wheel[at & wheel_mask_];
  thread.hot[slot].next_consumer = bucket;
  bucket = slot;
  ++thread.parked;
}

std::uint32_t Core::scan_bits(const std::uint64_t* words, std::uint32_t lo,
                              std::uint32_t hi) {
  std::uint32_t w = lo >> 6;
  const std::uint32_t last = (hi - 1) >> 6;  // hi > lo, so hi >= 1
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

std::uint32_t Core::next_ready(const ThreadState& thread,
                               std::uint32_t& pos) const {
  const std::uint32_t capacity = ring_mask_ + 1;
  // The window's program-order positions map to at most two contiguous
  // slot ranges (the ring wraps once), so masked word scans cover it.
  while (pos < thread.count) {
    const std::uint32_t start = (thread.head + pos) & ring_mask_;
    const std::uint32_t run = std::min(capacity - start, thread.count - pos);
    const std::uint32_t found = scan_bits(thread.ready, start, start + run);
    if (found != kNoneSlot) {
      pos += found - start;
      return found;
    }
    pos += run;
  }
  return kNoneSlot;
}

void Core::bind_stream(ThreadSlot slot, isa::StreamGen* stream) {
  SMTBAL_REQUIRE(slot.value() < threads_.size(), "bad thread slot");
  ThreadState& thread = threads_[slot.value()];
  thread.stream = stream;
  // A context switch discards the old context's in-flight work.
  gct_used_ -= thread.count;
  clear_window(thread);
  thread.mispredict_pending = false;
  thread.pending_branch_seq = 0;
  thread.redirect_until = 0;
  thread.fetch_empty = false;
  thread.fetch_gap =
      stream != nullptr ? stream->params().fetch_gap_fraction : 0.0;
  thread.next_seq = 0;
  // Deterministic per (core, slot, kernel): two identical configurations
  // measure identically regardless of sampling order.
  thread.front_end_rng.reseed(0xFE7C4ULL ^ (std::uint64_t{core_index_} << 20) ^
                              (std::uint64_t{slot.value()} << 16) ^
                              (stream != nullptr ? stream->kernel_id() : 0u));
}

void Core::set_priority(ThreadSlot slot, HwPriority priority) {
  SMTBAL_REQUIRE(slot.value() < threads_.size(), "bad thread slot");
  threads_[slot.value()].priority = priority;
  arbiter_.set_priority(slot.value(), priority);
}

HwPriority Core::priority(ThreadSlot slot) const {
  SMTBAL_REQUIRE(slot.value() < threads_.size(), "bad thread slot");
  return threads_[slot.value()].priority;
}

bool Core::decode_ready(ThreadSlot slot) const {
  SMTBAL_REQUIRE(slot.value() < threads_.size(), "bad thread slot");
  return can_decode(threads_[slot.value()]);
}

std::uint64_t Core::next_seq(ThreadSlot slot) const {
  SMTBAL_REQUIRE(slot.value() < threads_.size(), "bad thread slot");
  return threads_[slot.value()].next_seq;
}

const ThreadPerf& Core::perf(ThreadSlot slot) const {
  SMTBAL_REQUIRE(slot.value() < threads_.size(), "bad thread slot");
  return threads_[slot.value()].perf;
}

void Core::reset_perf() {
  for (ThreadState& thread : threads_) thread.perf = ThreadPerf{};
}

void Core::drain() {
  for (ThreadState& thread : threads_) {
    clear_window(thread);
    thread.mispredict_pending = false;
    thread.pending_branch_seq = 0;
    thread.redirect_until = 0;
    // A drained context starts from an empty fetch buffer *state*, not an
    // empty fetch buffer: leaving fetch_empty set would make the context
    // refuse decode on its first post-drain cycle.
    thread.fetch_empty = false;
    thread.next_seq = 0;
  }
  gct_used_ = 0;
  // The cycle counter phases the decode-arbiter slice (grant(now_, ...))
  // and the issue-scan rotation (now_ % num_contexts). Carrying it across
  // a drain would make a measurement's result depend on how many cycles
  // the core ran *before* the drain — ThroughputSampler::measure() must be
  // a pure function of (config, options, load) for the shared SampleCache
  // to be sound (see runner/batch.hpp), so the phase restarts too.
  now_ = 0;
}

bool Core::has_instructions(const ThreadState& thread) const {
  return thread.stream != nullptr && !thread.mispredict_pending &&
         now_ >= thread.redirect_until && !thread.fetch_empty;
}

bool Core::can_decode(const ThreadState& thread) const {
  return has_instructions(thread) &&
         thread.count < config_.per_thread_inflight &&
         gct_used_ < config_.gct_entries;
}

void Core::decode_thread(ThreadState& thread) {
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
    hot.issued = false;
    ++thread.count;
    ++gct_used_;

    // Resolve the register dependency once, at decode, instead of
    // re-deriving it on every examination. A consumer whose producer has
    // not issued cannot issue under any schedule until the producer does,
    // so it joins the producer's consumer chain and moves to the wake
    // wheel when the producer issues; one behind an issued producer goes
    // to the wheel at once. Either way it enters the ready mask exactly
    // on the cycle its dependency clears.
    hot.consumer_head = kNoneSlot;
    const std::uint32_t producer = producer_of(thread, slot);
    if (producer == kNoneSlot) {
      set_ready(thread, slot);
    } else if (!thread.hot[producer].issued) {
      hot.next_consumer = thread.hot[producer].consumer_head;
      thread.hot[producer].consumer_head = slot;
    } else if (thread.cold[producer].completion > now_) {
      park(thread, slot, thread.cold[producer].completion);
    } else {
      set_ready(thread, slot);
    }

    if (cold.op.cls == isa::OpClass::kBranch) {
      ++thread.perf.branches;
      if (cold.op.mispredicted) {
        ++thread.perf.mispredicts;
        // Front-end redirects: no younger instructions decode until the
        // branch resolves.
        thread.mispredict_pending = true;
        thread.pending_branch_seq = cold.seq;
      }
      break;  // a branch is always the last slot of a dispatch group
    }
    // Group formation breaks (cracked ops, pairing limits): the group ends
    // early and the rest of this decode cycle is lost.
    if (config_.group_break_prob > 0.0 &&
        thread.front_end_rng.chance(config_.group_break_prob)) {
      break;
    }
  }
}

std::uint32_t Core::producer_of(const ThreadState& thread,
                               std::uint32_t slot) const {
  const ColdSlot& entry = thread.cold[slot];
  if (entry.op.dep_dist == 0 || entry.op.dep_dist > entry.seq) return kNoneSlot;
  const std::uint64_t producer_seq = entry.seq - entry.op.dep_dist;
  const std::uint64_t front_seq = thread.cold[thread.head].seq;
  if (producer_seq < front_seq) return kNoneSlot;  // retired, hence complete
  return (thread.head + static_cast<std::uint32_t>(producer_seq - front_seq)) &
         ring_mask_;
}

void Core::issue_op(ThreadState& thread, std::uint32_t slot) {
  HotSlot& hot = thread.hot[slot];
  ColdSlot& cold = thread.cold[slot];
  std::uint32_t latency = cold.op.exec_latency;
  switch (cold.op.cls) {
    case isa::OpClass::kLoad: {
      const mem::AccessResult result =
          hierarchy_.access(core_index_, cold.op.address, /*is_write=*/false);
      latency = result.latency;
      ++thread.perf.loads;
      break;
    }
    case isa::OpClass::kStore:
      // Stores commit through the store queue off the critical path; they
      // still update the cache contents for sharing/eviction effects.
      (void)hierarchy_.access(core_index_, cold.op.address, /*is_write=*/true);
      latency = 1;
      break;
    default:
      break;
  }
  hot.issued = true;
  cold.completion = now_ + std::max<std::uint32_t>(latency, 1);
  clear_ready(thread, slot);

  // The consumers chained on this entry wake when it completes
  // (completion > now_, so the bucket is a future one).
  for (std::uint32_t consumer = hot.consumer_head; consumer != kNoneSlot;) {
    const std::uint32_t next = thread.hot[consumer].next_consumer;
    park(thread, consumer, cold.completion);
    consumer = next;
  }
  hot.consumer_head = kNoneSlot;

  if (thread.mispredict_pending && cold.seq == thread.pending_branch_seq) {
    thread.mispredict_pending = false;
    thread.redirect_until = cold.completion + config_.mispredict_penalty;
  }
}

void Core::issue() {
  // Execution-unit pools, indexed through kUnitOf: FXU, FPU, LSU, BRU.
  static constexpr std::uint8_t kUnitOf[isa::kNumOpClasses] = {0, 1, 2, 2, 3};
  std::uint32_t units[4] = {config_.fxu_units, config_.fpu_units,
                            config_.lsu_units, config_.bru_units};
  std::uint32_t budget = config_.issue_width;

  // Oldest-first across all contexts: scan each thread's ready mask in
  // program order, merging by decode cycle (ties broken by rotating the
  // start thread so no context gets a structural advantage). The ready set
  // is exactly the unissued entries whose dependency has cleared; an entry
  // still waiting would have no effect on budget or unit pools if it were
  // examined, so the scan examines the same ops the old full-window walk
  // would have issued.
  const std::size_t num = threads_.size();
  std::uint32_t candidates = 0;
  for (std::size_t t = 0; t < num; ++t) {
    process_wakes(threads_[t]);
    candidates += threads_[t].ready_count;
  }
  // Whole-core fast exit: when every in-flight entry is issued, chained on
  // a producer, or on the wake wheel there is nothing to scan, which is
  // the common state behind an off-chip miss.
  if (candidates == 0) return;

  // Examines one candidate. A ready entry's dependency has cleared — the
  // wheel wakes it on its producer's completion cycle — so only the unit
  // pool can reject it (the debug build re-derives the dependency).
  const auto attempt = [&](ThreadState& thread, std::uint32_t slot) {
    std::uint32_t& pool =
        units[kUnitOf[static_cast<std::size_t>(thread.cold[slot].op.cls)]];
    if (pool == 0) return;  // structural hazard; younger ops may still go
    SMTBAL_DCHECK(producer_of(thread, slot) == kNoneSlot ||
                  (thread.hot[producer_of(thread, slot)].issued &&
                   thread.cold[producer_of(thread, slot)].completion <= now_));
    --pool;
    --budget;
    issue_op(thread, slot);
  };

  const std::size_t first = static_cast<std::size_t>(now_ % num);

  if (num == 2) {
    // Register-resident two-way merge for the paper's POWER5 shape; same
    // pick order as the generic loop below (min decode cycle, ties to the
    // rotation-first thread).
    ThreadState& ta = threads_[first];
    ThreadState& tb = threads_[first ^ 1];
    std::uint32_t pos_a = 0;
    std::uint32_t pos_b = 0;
    std::uint32_t cand_a = ta.ready_count != 0 ? next_ready(ta, pos_a) : kNoneSlot;
    std::uint32_t cand_b = tb.ready_count != 0 ? next_ready(tb, pos_b) : kNoneSlot;
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
    // Advance past this candidate either way: a rejected op stays ready for
    // the next cycle but is not reconsidered this cycle.
    ++issue_cursor_[p];
    issue_candidate_[p] = kScanPending;
    attempt(threads_[p], slot);
  }
}

void Core::retire(ThreadState& thread) {
  // Unissued entries keep issued == false, so retire can never pass one;
  // the front of the ring is therefore never on the unissued list here.
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

void Core::step() {
  // Retire first so entries completing at `now_` free GCT slots before the
  // decode stage checks occupancy (completion <= now_ means "done"), then
  // draw this cycle's fetch-buffer state for each bound context (the draw
  // happens every cycle regardless of what decode does with it — the RNG
  // sequence is part of the model's observable behaviour).
  for (ThreadState& thread : threads_) {
    retire(thread);
    thread.fetch_empty =
        thread.fetch_gap > 0.0 && thread.front_end_rng.chance(thread.fetch_gap);
  }

  // With the GCT full no context can want decode, so the signal gathering
  // and the grant are dead work: the arbiter would return either -1 or a
  // donation target that also declines. decode_cycles_wanted is unaffected
  // (wants would be false for every context).
  if (gct_used_ < config_.gct_entries) {
    for (std::size_t t = 0; t < threads_.size(); ++t) {
      const bool has = has_instructions(threads_[t]);
      const bool wants = has && threads_[t].count < config_.per_thread_inflight;
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

void Core::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) step();
}

bool Core::idle() const {
  return std::none_of(threads_.begin(), threads_.end(),
                      [](const ThreadState& t) { return t.stream != nullptr; });
}

void Core::skip_idle(Cycle cycles) {
  SMTBAL_REQUIRE(idle(), "skip_idle on a core with a bound stream");
  SMTBAL_DCHECK(gct_used_ == 0);
  now_ += cycles;
}

}  // namespace smtbal::smt
