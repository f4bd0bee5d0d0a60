// Binary-heap event queue with deterministic (time, seq) tie-breaking.
//
// std::priority_queue is not used because its ordering of equal elements
// is unspecified across implementations; simultaneous events here pop in
// exact insertion order, which the engine's reproducibility guarantee
// (bit-identical runs for identical inputs) depends on.
//
// Storage is data-oriented: the heap itself holds only the 24-byte
// (time, seq, slot) handles the comparator touches, while the cold event
// body (kind, subject, generation, MsgPayload) lives out-of-line in an
// arena indexed by `slot`. Sift operations therefore move half the bytes
// of a full Event, and popped slots recycle through a free list so the
// arena footprint is bounded by the peak queue depth, not by the total
// number of events ever pushed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mpisim/event.hpp"

namespace smtbal::mpisim {

class EventQueue {
 public:
  /// Schedules an event; returns the sequence number assigned to it.
  std::uint64_t push(SimTime time, EventKind kind, std::uint32_t subject = 0,
                     std::uint64_t generation = 0, MsgPayload msg = {});

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Removes and returns the earliest event. Throws when empty.
  Event pop();

  /// Total events ever pushed (also the next sequence number).
  [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

  /// Arena slots currently allocated (peak simultaneous queue depth);
  /// exposed so tests can assert that the free list actually recycles.
  [[nodiscard]] std::size_t arena_slots() const { return arena_.size(); }

 private:
  /// What the heap orders: the comparator key plus the arena slot of the
  /// event body. Kept POD-small so sift swaps stay cheap.
  struct Handle {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// The part of an Event the comparator never reads, stored out-of-line.
  struct Body {
    EventKind kind = EventKind::kComputeDone;
    std::uint32_t subject = 0;
    std::uint64_t generation = 0;
    MsgPayload msg{};
  };

  static bool before(const Handle& a, const Handle& b);
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  [[nodiscard]] Event materialize(const Handle& handle) const;

  std::vector<Handle> heap_;
  std::vector<Body> arena_;
  std::vector<std::uint32_t> free_;  ///< recycled arena slots (LIFO)
  std::uint64_t next_seq_ = 0;
};

}  // namespace smtbal::mpisim
