// Streaming statistics behind the batch runner's per-batch summaries.
#pragma once

#include <cstddef>
#include <limits>

namespace smtbal {

/// Running mean/min/max/sum (Welford's update for the mean).
class RunningStats {
 public:
  void add(double x);

  void reset() { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace smtbal
