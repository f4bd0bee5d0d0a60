// perfbench: runs one workload and prints its metrics. The last stdout
// line is the JSON result; the lines before it are for people.
//
//   perfbench --workload sweep-cold|sweep-warm|service-open --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--golden FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run and prints the per-layer metrics, module self times and the
// tracing overhead. The exit code is 1 when any output check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "suite.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench"
               " --workload sweep-cold|sweep-warm|service-open --seed N"
               " --seconds S --trace 0|1 [--out-dir DIR] [--golden FILE]\n";
  std::exit(2);
}

/// Reads the golden for (workload, seed, seconds) into `options` from a
/// file of "<workload> <seed> <seconds> <digest> [<measurements>]" lines;
/// leaves it empty when none is listed.
void read_golden(const std::string& path, const std::string& workload,
                 RunOptions& options) {
  std::ifstream in(path);
  if (!in) usage("cannot read golden file " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, digest;
    std::uint64_t seed = 0, measurements = 0;
    double seconds = 0.0;
    if (fields >> name >> seed >> seconds >> digest && name == workload &&
        seed == options.seed && seconds == options.seconds) {
      options.golden = digest;
      if (fields >> measurements) options.golden_measurements = measurements;
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  std::string workload, golden_path;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
      have_seconds = options.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--golden") {
      golden_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  if (!golden_path.empty()) {
    read_golden(golden_path, workload, options);
  }

  Report report;
  if (workload == "sweep-cold") {
    report = sweep_cold(options);
  } else if (workload == "sweep-warm") {
    report = sweep_warm(options);
  } else if (workload == "service-open") {
    report = service_open(options);
  } else {
    usage("unknown workload '" + workload + "'");
  }

  for (const std::string& line : report.lines) std::cout << line << '\n';
  for (const Metric& metric : report.metrics) {
    std::printf("%-32s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%-32s %.6g (failed %llu of %llu attempted)\n", "failed_ratio",
              report.attempted
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::cout << result_json(report.correct, report.attempted, report.failed,
                           report.metrics)
            << std::endl;
  return report.correct ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "perfbench: " << e.what() << '\n';
  return 1;
}
