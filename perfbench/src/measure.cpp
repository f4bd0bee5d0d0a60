#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Tail tail_percentile(const std::vector<double>& samples,
                     std::size_t min_beyond) {
  if (samples.empty()) throw std::invalid_argument("tail of no samples");
  const std::size_t n = samples.size();
  Tail tail;
  tail.percentile = kTailLadder[0];
  for (const double p : kTailLadder) {
    const std::size_t beyond = n - nearest_rank(n, p);
    if (beyond < min_beyond) break;
    tail.percentile = p;
  }
  tail.beyond = n - nearest_rank(n, tail.percentile);
  tail.value = percentile(samples, tail.percentile);
  return tail;
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::uint64_t value) { add_bytes(&value, sizeof value); }

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view text) {
  add(static_cast<std::uint64_t>(text.size()));
  add_bytes(text.data(), text.size());
}

std::string Digest::hex() const {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> open_stack;
}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t SpanRecorder::open(std::string name, std::uint64_t id) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_stack.empty() ? -1 : open_stack.back();
  span.id = id;
  std::int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    span.start_s = seconds_between(origin_, Clock::now());
    spans_.push_back(std::move(span));
  }
  open_stack.push_back(index);
  return index;
}

void SpanRecorder::close(std::int64_t index) {
  if (!enabled_) return;
  if (open_stack.empty() || open_stack.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  open_stack.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_s =
      seconds_between(origin_, Clock::now());
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  char line[256];
  for (const Span& span : spans()) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                  "\"parent\":%lld,\"id\":%llu}\n",
                  span.name.c_str(), span.start_s, span.end_s,
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.id));
    out << line;
  }
  if (!out) throw std::runtime_error("short write to span file " + path);
}

std::vector<std::pair<std::string, double>> module_self_seconds(
    const std::vector<Span>& spans) {
  std::vector<double> child_cover(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_cover[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    const std::string module = name.substr(0, name.find('.'));
    self[module] += std::max(
        0.0, spans[i].end_s - spans[i].start_s - child_cover[i]);
  }
  return {self.begin(), self.end()};
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(number, sizeof number, "%.17g", metrics[i].value);
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << number << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
