#include "service/request.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/jsonl.hpp"

namespace smtbal::service {

namespace {

using jsonl::Record;
using jsonl::fail;

StatSelection parse_stats(const std::string& list, std::string_view source,
                          std::size_t line) {
  StatSelection stats{false, false, false, false};
  std::istringstream items(list);
  bool any = false;
  for (std::string item; std::getline(items, item, ',');) {
    if (item == "exec_time") {
      stats.exec_time = true;
    } else if (item == "imbalance") {
      stats.imbalance = true;
    } else if (item == "events") {
      stats.events = true;
    } else if (item == "priority_resets") {
      stats.priority_resets = true;
    } else {
      fail(source, line,
           "unknown stat '" + item +
               "' (known: exec_time, imbalance, events, priority_resets)");
    }
    any = true;
  }
  if (!any) {
    fail(source, line, "field \"stats\" must name at least one stat");
  }
  return stats;
}

}  // namespace

std::string_view to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kRejected: return "rejected";
  }
  return "error";
}

std::vector<EvalRequest> parse_requests(std::istream& in,
                                        std::string_view source) {
  std::vector<EvalRequest> requests;
  std::set<std::string> seen_ids;
  const auto on_eval = [&](const Record& record, std::size_t line) {
    EvalRequest request;
    request.id = jsonl::require_string(record, "id", source, line);
    if (request.id.empty()) fail(source, line, "field \"id\" must not be empty");
    if (!seen_ids.insert(request.id).second) {
      fail(source, line, "duplicate request id '" + request.id + "'");
    }
    const bool has_scenario = record.count("scenario") != 0;
    const bool has_trace = record.count("trace") != 0;
    if (has_scenario == has_trace) {
      fail(source, line,
           "an eval record needs exactly one of \"scenario\" and \"trace\"");
    }
    if (has_scenario) {
      request.scenario = jsonl::require_string(record, "scenario", source, line);
      if (record.count("cores") || record.count("smt")) {
        fail(source, line,
             "\"cores\"/\"smt\" apply to trace requests only (a scenario "
             "carries its own shape)");
      }
    } else {
      request.trace_path = jsonl::require_string(record, "trace", source, line);
      if (request.trace_path.empty()) {
        fail(source, line, "field \"trace\" must not be empty");
      }
      if (record.count("cores")) {
        request.cores = static_cast<std::uint32_t>(
            jsonl::require_count(record, "cores", source, line));
      }
      if (record.count("smt")) {
        const std::uint64_t smt =
            jsonl::require_count(record, "smt", source, line);
        if (smt != 2 && smt != 4) {
          fail(source, line, "field \"smt\" must be 2 or 4");
        }
        request.smt = static_cast<std::uint32_t>(smt);
      }
    }
    if (record.count("policy")) {
      request.policy = jsonl::require_string(record, "policy", source, line);
      if (request.policy.empty()) {
        fail(source, line,
             "field \"policy\" must not be empty (use \"none\" for the "
             "no-policy baseline)");
      }
    }
    if (record.count("lane")) {
      const std::string lane = jsonl::require_string(record, "lane", source, line);
      if (lane == "interactive") {
        request.lane = Lane::kInteractive;
      } else if (lane == "batch") {
        request.lane = Lane::kBatch;
      } else {
        fail(source, line,
             "unknown lane '" + lane + "' (expected interactive or batch)");
      }
    }
    if (record.count("stats")) {
      request.stats = parse_stats(
          jsonl::require_string(record, "stats", source, line), source, line);
    }
    requests.push_back(std::move(request));
  };
  jsonl::read_feed(in, source, {kEvalRequestSchema, "eval", "request feed"},
                   [](const Record&, std::size_t) {}, on_eval);
  return requests;
}

std::vector<EvalRequest> parse_requests_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidArgument("cannot open request file '" + path + "'");
  }
  return parse_requests(in, path);
}

std::string to_json_record(const EvalResponse& response) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kEvalResponseSchema
     << "\",\"type\":\"result\",\"id\":\"" << jsonl::json_escape(response.id)
     << "\",\"status\":\"" << to_string(response.status) << "\"";
  if (response.status == Status::kOk) {
    char key_hex[32];
    std::snprintf(key_hex, sizeof key_hex, "0x%016llx",
                  static_cast<unsigned long long>(response.key));
    os << ",\"key\":\"" << key_hex << "\"";
    if (response.stats.exec_time) {
      os << ",\"exec_time\":" << jsonl::json_num(response.result.exec_time);
    }
    if (response.stats.imbalance) {
      os << ",\"imbalance\":" << jsonl::json_num(response.result.imbalance);
    }
    if (response.stats.events) {
      os << ",\"events\":" << response.result.events;
    }
    if (response.stats.priority_resets) {
      os << ",\"priority_resets\":" << response.result.priority_resets;
    }
  } else {
    os << ",\"error\":\"" << jsonl::json_escape(response.error) << "\"";
  }
  os << "}";
  return os.str();
}

}  // namespace smtbal::service
