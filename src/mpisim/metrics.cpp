#include "mpisim/metrics.hpp"

#include <cmath>

namespace smtbal::mpisim {

void DurationHistogram::add(SimTime duration) {
  if (!(duration > 0.0)) return;
  const double decade = std::floor(std::log10(duration));
  const double bucket = decade + 9.0;  // 1 ns => bucket 0
  std::size_t index = 0;
  if (bucket >= static_cast<double>(kBuckets)) {
    index = kBuckets - 1;
  } else if (bucket > 0.0) {
    index = static_cast<std::size_t>(bucket);
  }
  ++counts[index];
}

void MetricsObserver::on_interval(RankId rank, SimTime begin, SimTime end,
                                  trace::RankState state) {
  RankMetrics& m = report_.ranks[rank.value()];
  const SimTime duration = end - begin;
  switch (state) {
    case trace::RankState::kCompute:
      m.compute += duration;
      m.compute_intervals.add(duration);
      break;
    case trace::RankState::kSync:
      m.wait += duration;
      m.spin += duration;
      m.wait_intervals.add(duration);
      break;
    case trace::RankState::kInit:
    case trace::RankState::kComm:
    case trace::RankState::kStat:
      m.spin += duration;
      break;
    case trace::RankState::kPreempted:
      m.preempted += duration;
      break;
    case trace::RankState::kDone:
      break;
  }
}

void MetricsObserver::on_priority_change(RankId rank, int from, int to,
                                         SimTime now) {
  (void)from, (void)to, (void)now;
  ++report_.ranks[rank.value()].priority_changes;
}

void MetricsObserver::on_placement_change(RankId rank, CpuId from, CpuId to,
                                          SimTime now) {
  (void)from, (void)to, (void)now;
  ++report_.ranks[rank.value()].placement_moves;
}

}  // namespace smtbal::mpisim
