#include "mpisim/event_queue.hpp"

#include <utility>

#include "common/error.hpp"

namespace smtbal::mpisim {

bool EventQueue::before(const Handle& a, const Handle& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

Event EventQueue::materialize(const Handle& handle) const {
  const Body& body = arena_[handle.slot];
  return Event{handle.time, handle.seq, body.kind,
               body.subject, body.generation, body.msg};
}

std::uint64_t EventQueue::push(SimTime time, EventKind kind,
                               std::uint32_t subject, std::uint64_t generation,
                               MsgPayload msg) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  arena_[slot] = Body{kind, subject, generation, msg};
  heap_.push_back(Handle{time, seq, slot});
  sift_up(heap_.size() - 1);
  return seq;
}

Event EventQueue::pop() {
  SMTBAL_CHECK_MSG(!heap_.empty(), "pop() on an empty event queue");
  const Handle top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  Event out = materialize(top);
  free_.push_back(top.slot);
  return out;
}

void EventQueue::sift_up(std::size_t index) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!before(heap_[index], heap_[parent])) return;
    std::swap(heap_[index], heap_[parent]);
    index = parent;
  }
}

void EventQueue::sift_down(std::size_t index) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * index + 1;
    const std::size_t right = left + 1;
    std::size_t smallest = index;
    if (left < n && before(heap_[left], heap_[smallest])) smallest = left;
    if (right < n && before(heap_[right], heap_[smallest])) smallest = right;
    if (smallest == index) return;
    std::swap(heap_[index], heap_[smallest]);
    index = smallest;
  }
}

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kComputeDone: return "compute-done";
    case EventKind::kDelayDone: return "delay-done";
    case EventKind::kMsgArrival: return "msg-arrival";
    case EventKind::kBarrierRelease: return "barrier-release";
    case EventKind::kNoisePreempt: return "noise-preempt";
    case EventKind::kNoiseResume: return "noise-resume";
    case EventKind::kPriorityChange: return "priority-change";
    case EventKind::kEpochEnd: return "epoch-end";
  }
  return "?";
}

}  // namespace smtbal::mpisim
