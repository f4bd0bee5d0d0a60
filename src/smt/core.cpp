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
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    threads_[t].hot = hot_arena_.data() + capacity * t;
    threads_[t].cold = cold_arena_.data() + capacity * t;
    threads_[t].ready = ready_arena_.data() + std::size_t{ready_words_} * t;
  }
}

void Core::clear_window(ThreadState& thread) {
  thread.head = 0;
  thread.count = 0;
  thread.wakes.clear();
  std::fill_n(thread.ready, ready_words_, 0);
  thread.ready_count = 0;
}

void Core::process_wakes(ThreadState& thread) {
  while (!thread.wakes.empty() && thread.wakes.front().at <= now_) {
    std::pop_heap(thread.wakes.begin(), thread.wakes.end(),
                  [](const WakeEvent& a, const WakeEvent& b) {
                    return a.at > b.at;
                  });
    const std::uint32_t slot = thread.wakes.back().slot;
    thread.wakes.pop_back();
    set_ready(thread, slot);
  }
}

void Core::sleep_entry(ThreadState& thread, std::uint32_t slot, Cycle until) {
  thread.hot[slot].stall_until = until;
  clear_ready(thread, slot);
  thread.wakes.push_back(WakeEvent{until, slot});
  std::push_heap(thread.wakes.begin(), thread.wakes.end(),
                 [](const WakeEvent& a, const WakeEvent& b) {
                   return a.at > b.at;
                 });
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
  // Entries still inside a known stall bound are consumed here in the
  // tight loop — a stalled candidate has no effect on budget or unit
  // pools, so skipping it is identical to examining and rejecting it.
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
      ++pos;  // known-stalled: consumed for this cycle, keep scanning
      continue;
    }
    return found;
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
    hot.stall_until = 0;
    hot.issued = false;
    set_ready(thread, slot);
    ++thread.count;
    ++gct_used_;

    // Resolve the register dependency once, at decode, instead of
    // re-deriving it on every examination. A consumer whose producer has
    // not issued cannot issue under any schedule until the producer does,
    // so it parks on the producer's consumer chain and is woken with the
    // exact completion bound when the producer issues: one wake per
    // dependence edge replaces a per-cycle re-check.
    hot.consumer_head = kNoneSlot;
    if (cold.op.dep_dist != 0 && cold.op.dep_dist <= cold.seq) {
      const std::uint64_t producer_seq = cold.seq - cold.op.dep_dist;
      const std::uint64_t front_seq = thread.cold[thread.head].seq;
      if (producer_seq >= front_seq) {  // else: retired, hence complete
        const std::uint32_t producer =
            (thread.head + static_cast<std::uint32_t>(producer_seq - front_seq)) &
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

// Returns the cycle from which `entry`'s register dependency is satisfied:
// <= now_ means "ready now". Once the producer has issued, its completion
// cycle is exact and final (issued ops never re-issue; retiring requires
// completion <= now_, which keeps the bound valid through retirement).
// While the producer has not issued, its own stall_until is a proven lower
// bound on its issue cycle, and completion = issue + max(latency, 1), so
// the dependency cannot clear before stall_until + 1; this propagates a
// long stall (e.g. an off-chip load miss) down the whole dependency chain
// instead of re-deriving every link every cycle.
Cycle Core::dep_stall_until(const ThreadState& thread,
                            std::uint32_t slot) const {
  const ColdSlot& entry = thread.cold[slot];
  if (entry.op.dep_dist == 0) return 0;
  if (entry.op.dep_dist > entry.seq) return 0;  // producer predates window
  const std::uint64_t producer_seq = entry.seq - entry.op.dep_dist;
  if (thread.count == 0 || producer_seq < thread.cold[thread.head].seq) {
    return 0;  // producer already retired, hence complete
  }
  const std::uint64_t index = producer_seq - thread.cold[thread.head].seq;
  const std::uint32_t producer =
      static_cast<std::uint32_t>(thread.head + index) & ring_mask_;
  if (!thread.hot[producer].issued) {
    return std::max(now_ + 1, thread.hot[producer].stall_until + 1);
  }
  return thread.cold[producer].completion;
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

  // Wake the consumers parked on this entry: its completion is now their
  // exact dependency bound (completion > now_, so each either sleeps on
  // the wake heap or re-enters the mask carrying the cached bound).
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

void Core::issue() {
  std::uint32_t fxu = config_.fxu_units;
  std::uint32_t fpu = config_.fpu_units;
  std::uint32_t lsu = config_.lsu_units;
  std::uint32_t bru = config_.bru_units;
  std::uint32_t budget = config_.issue_width;

  // Oldest-first across all contexts: scan each thread's ready mask in
  // program order, merging by decode cycle (ties broken by rotating the
  // start thread so no context gets a structural advantage). The ready set
  // is exactly the unissued entries minus the provably-stalled ones, and a
  // stalled candidate has no effect on budget or unit pools, so the scan
  // examines the same ops the old full-window walk would have issued.
  const std::size_t num = threads_.size();
  std::uint32_t candidates = 0;
  for (std::size_t t = 0; t < num; ++t) {
    process_wakes(threads_[t]);
    candidates += threads_[t].ready_count;
  }
  // Whole-core fast exit: during a long shared stall (every in-flight entry
  // issued, chained on a producer, or asleep on the wake heap) there is
  // nothing to scan, which is the common state behind an off-chip miss.
  if (candidates == 0) return;

  // Examines one candidate. The pool and dependency rejections are both
  // pure (no budget, pool or entry mutation beyond the cached stall bound),
  // so checking the cheap one first cannot change which ops issue. Short
  // dependency stalls stay in the ready mask (one cached-bound rejection
  // per cycle is cheaper than heap traffic); long ones — load misses —
  // sleep until their exact wake cycle.
  const auto attempt = [&](ThreadState& thread, std::uint32_t slot) {
    std::uint32_t* pool = nullptr;
    switch (thread.cold[slot].op.cls) {
      case isa::OpClass::kFixed: pool = &fxu; break;
      case isa::OpClass::kFloat: pool = &fpu; break;
      case isa::OpClass::kLoad:
      case isa::OpClass::kStore: pool = &lsu; break;
      case isa::OpClass::kBranch: pool = &bru; break;
    }
    if (*pool == 0) return;  // structural hazard; younger ops may still go
    // No dependency check here: stall_until is the *exact* dependency-ready
    // cycle — resolved at decode when the producer had already issued, or
    // installed by the producer's consumer-chain walk when it did — and
    // next_ready() only surfaces entries past their bound. The debug build
    // cross-checks that invariant against the full re-derivation.
    SMTBAL_DCHECK(dep_stall_until(thread, slot) <= now_);
    --*pool;
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
