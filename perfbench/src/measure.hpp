// Measurement primitives of the perfbench harness: clocks, process
// resource counters, percentile rules, the output digest and the span
// recorder behind the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// User + system CPU time of the whole process (every thread), seconds.
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set (VmHWM) of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Nearest-rank percentile, p in (0, 100]: the ceil(p/100 * n)-th
/// smallest sample. Requires a non-empty sample set.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// A tail latency together with the rule that picked it.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99.5
  std::size_t beyond = 0;   ///< samples ranked above the reported one
  double value = 0.0;
};

/// Percentiles the tail rule picks from, highest last.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0,  95.0,  99.0,
                                         99.5, 99.9, 99.95, 99.99};

/// The highest ladder percentile that leaves at least `min_beyond`
/// samples ranked above it (nearest rank), falling back to the median
/// when even that has fewer. Requires a non-empty sample set.
[[nodiscard]] Tail tail_percentile(const std::vector<double>& samples,
                                   std::size_t min_beyond = 10);

/// Order-sensitive FNV-1a digest over the exact bits of the values fed.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  void add(std::string_view text);
  [[nodiscard]] std::uint64_t value() const { return state_; }
  [[nodiscard]] std::string hex() const;

 private:
  void add_bytes(const void* data, std::size_t size);
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One timed call into a module, recorded by the traced run.
struct Span {
  std::string name;    ///< "<module>.<call>", e.g. "policy.epoch"
  double start_s = 0;  ///< relative to the recorder's origin
  double end_s = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint64_t id = 0;      ///< request or run id the span belongs to
};

/// In-memory span store. Thread-safe; each thread keeps its own stack of
/// open spans so nested calls get their parent automatically. A disabled
/// recorder records nothing and costs one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the calling thread's innermost open span and
  /// returns its index (-1 when disabled).
  std::int64_t open(std::string name, std::uint64_t id = 0);
  /// Closes the calling thread's innermost span, which must be `index`.
  void close(std::int64_t index);

  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes one JSON object per span to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::uint64_t id = 0)
      : recorder_(recorder), index_(recorder.open(std::move(name), id)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

/// Self time per module ("policy" for "policy.epoch"): each span's
/// duration minus the part its direct children cover, summed by module
/// and sorted by module name.
[[nodiscard]] std::vector<std::pair<std::string, double>> module_self_seconds(
    const std::vector<Span>& spans);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The harness's final stdout line: {"correct":..,"attempted":..,
/// "failed":..,"metrics":{name:{"value":..,"unit":..},..}}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
