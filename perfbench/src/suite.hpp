// The three perfbench workloads. Each returns a Report: the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), the
// attempted/failed counts, and human-readable lines printed ahead of the
// result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span file of a traced run.
  std::string out_dir = ".";
  /// Expected output digest for this (workload, seed, seconds), empty =
  /// none known.
  std::string golden;
  /// Expected cycle-level measurements per pass, when the golden has them.
  std::optional<std::uint64_t> golden_measurements;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< errors + rejections + output mismatches
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  std::string digest;

  void note(std::string line) { lines.push_back(std::move(line)); }
  /// Records an output mismatch: counts one failure and fails the run.
  void mismatch(const std::string& what);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Checks the digest, and `measurements` (cycle-level measurements per
/// pass) when given, against the golden when one is known, and records a
/// mismatch for each that differs.
void check_golden(Report& report, const RunOptions& options,
                  std::optional<std::uint64_t> measurements = std::nullopt);

/// Adds <prefix>_p50_ms and notes <prefix>_tail_ms with the tail rule's
/// percentile and sample count. The tail is printed, not part of the
/// result line: over sets of ten seeds its spread reached 0.29 of its
/// median on service-open, over the gate's largest bound of 0.25.
void add_latency(Report& report, const std::string& prefix,
                 const std::vector<double>& latency_ms);

[[nodiscard]] Report sweep_cold(const RunOptions& options);
[[nodiscard]] Report sweep_warm(const RunOptions& options);
[[nodiscard]] Report service_open(const RunOptions& options);

}  // namespace perfbench
