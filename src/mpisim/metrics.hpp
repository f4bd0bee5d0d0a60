// MetricsObserver: per-rank time breakdowns, interval-duration histograms
// and priority-change counts, collected from the observer bus and
// serialized by src/runner/ into its JSONL records.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mpisim/observer.hpp"

namespace smtbal::mpisim {

/// Log-scale (decade) histogram of interval durations: bucket b counts
/// durations in [10^(b-9), 10^(b-8)) seconds, i.e. bucket 0 is < 10 ns
/// (including everything shorter) and bucket 13 is >= 10 ks.
struct DurationHistogram {
  static constexpr std::size_t kBuckets = 14;
  std::array<std::uint64_t, kBuckets> counts{};

  void add(SimTime duration);
};

struct RankMetrics {
  SimTime compute = 0.0;    ///< time shown as kCompute
  SimTime wait = 0.0;       ///< time blocked in MPI (kSync)
  /// Busy-wait occupancy: every non-compute interval where the rank still
  /// holds its SMT context spinning (sync + stat + init) — the paper's
  /// reason hardware priorities matter.
  SimTime spin = 0.0;
  SimTime preempted = 0.0;  ///< time stolen by OS noise
  DurationHistogram compute_intervals;
  DurationHistogram wait_intervals;
  std::uint64_t priority_changes = 0;
  std::uint64_t placement_moves = 0;
};

struct MetricsReport {
  std::vector<RankMetrics> ranks;
  /// Processed simulation events by kind (indexed by EventKind).
  std::array<std::uint64_t, kNumEventKinds> events_by_kind{};
  int epochs = 0;  ///< last reported global epoch
};

class MetricsObserver final : public SimObserver {
 public:
  explicit MetricsObserver(std::size_t num_ranks) {
    report_.ranks.resize(num_ranks);
  }

  void on_event(const Event& event) override {
    ++report_.events_by_kind[static_cast<std::size_t>(event.kind)];
  }
  void on_interval(RankId rank, SimTime begin, SimTime end,
                   trace::RankState state) override;
  void on_priority_change(RankId rank, int from, int to, SimTime now) override;
  void on_placement_change(RankId rank, CpuId from, CpuId to,
                           SimTime now) override;
  void on_epoch(const EpochReport& report) override {
    report_.epochs = report.epoch;
  }

  [[nodiscard]] MetricsReport take() { return std::move(report_); }

 private:
  MetricsReport report_;
};

}  // namespace smtbal::mpisim
