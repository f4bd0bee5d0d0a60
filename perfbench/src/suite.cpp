#include "suite.hpp"

#include <cstdio>

namespace perfbench {

void Report::mismatch(const std::string& what) {
  ++failed;
  correct = false;
  note("MISMATCH: " + what);
}

void check_golden(Report& report, const RunOptions& options,
                  std::optional<std::uint64_t> measurements) {
  if (options.golden.empty()) return;
  if (report.digest != options.golden) {
    report.mismatch("digest " + report.digest + " != golden " + options.golden);
  } else {
    report.note("digest matches the golden for seed " +
                std::to_string(options.seed));
  }
  if (measurements && options.golden_measurements &&
      *measurements != *options.golden_measurements) {
    report.mismatch(std::to_string(*measurements) +
                    " cycle-level measurements per pass != golden " +
                    std::to_string(*options.golden_measurements));
  }
}

void add_latency(Report& report, const std::string& prefix,
                 const std::vector<double>& latency_ms) {
  const Tail tail = tail_percentile(latency_ms);
  report.add(prefix + "_p50_ms", percentile(latency_ms, 50.0), "ms");
  char line[200];
  std::snprintf(line, sizeof line,
                "%-32s %.6g ms (p%g: %zu of %zu samples lie beyond it)",
                (prefix + "_tail_ms").c_str(), tail.value, tail.percentile,
                tail.beyond, latency_ms.size());
  report.note(line);
}

}  // namespace perfbench
