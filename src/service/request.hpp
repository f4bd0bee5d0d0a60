// The evaluation service's wire format: smtbal.evalreq/1 requests in,
// smtbal.evalresp/1 responses out.
//
// A request feed is JSONL, meta record first, parsed with the same strict
// line-numbered tokenizer as smtbal.trace-replay/1 (common/jsonl.hpp):
//
//   {"schema":"smtbal.evalreq/1","type":"meta","name":"smoke"}
//   {"schema":"smtbal.evalreq/1","type":"eval","id":"q1",
//    "scenario":"seed=42 ranks=6 cores=2 smt=2","policy":"dynamic"}
//   {"schema":"smtbal.evalreq/1","type":"eval","id":"q2",
//    "trace":"runs/app.jsonl","policy":"none","lane":"interactive",
//    "stats":"exec_time,imbalance"}
//
// Eval-record fields:
//   id        required, unique within the feed; echoed on the response
//   scenario  simcheck::ScenarioSpec one-liner (parse_spec_string format;
//             omitted keys take the spec defaults)       } exactly one of
//   trace     path to a smtbal.trace-replay/1 file       } scenario/trace
//   policy    policy::Registry spec, or "none" (the default)
//   lane      "interactive" (small what-if queries, served first) or
//             "batch" (the default; bulk lane, admission-limited first)
//   stats     comma list of exec_time,imbalance,events,priority_resets;
//             absent = all four
//   cores     trace requests only: chip core count (default: the smallest
//             SMT2 chip that seats every rank)
//   smt       trace requests only: threads per core, 2 or 4 (default 2)
//
// Responses echo one result record per request, in request order:
//
//   {"schema":"smtbal.evalresp/1","type":"result","id":"q1","status":"ok",
//    "key":"0x1f2e...","exec_time":1.25,...}
//
// status is "ok", "error" (the request failed to build or run; "error"
// carries the message) or "rejected" (admission control turned it away;
// resubmit after a drain). Result records are byte-identical for any
// worker count; the scheduling-dependent counters ride in a single
// trailing smtbal.evalresp.batch/1 record (service.hpp) that diffs drop.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace smtbal::service {

inline constexpr std::string_view kEvalRequestSchema = "smtbal.evalreq/1";
inline constexpr std::string_view kEvalResponseSchema = "smtbal.evalresp/1";

/// Which result fields a request asks for (and its response carries).
struct StatSelection {
  bool exec_time = true;
  bool imbalance = true;
  bool events = true;
  bool priority_resets = true;

  [[nodiscard]] bool operator==(const StatSelection&) const = default;
};

enum class Lane : std::uint8_t {
  kInteractive,  ///< small what-if queries; dequeued first
  kBatch,        ///< bulk evaluations; admission-limited before interactive
};

/// One declarative evaluation request.
struct EvalRequest {
  std::string id;
  std::string scenario;    ///< ScenarioSpec one-liner; empty for traces
  std::string trace_path;  ///< trace-replay file reference; empty for specs
  std::string policy = "none";
  Lane lane = Lane::kBatch;
  StatSelection stats;
  /// Trace requests only: chip shape. 0 cores = size the chip to seat
  /// every rank at the given SMT width.
  std::uint32_t cores = 0;
  std::uint32_t smt = 2;
};

/// The stats payload served for a request (and persisted in the store).
struct EvalResult {
  double exec_time = 0.0;
  double imbalance = 0.0;
  std::uint64_t events = 0;
  std::uint64_t priority_resets = 0;

  [[nodiscard]] bool operator==(const EvalResult&) const = default;
};

enum class Status : std::uint8_t { kOk, kError, kRejected };

/// One response record, in 1:1 correspondence with a submitted request.
struct EvalResponse {
  std::string id;
  Status status = Status::kError;
  std::string error;       ///< engaged for kError / kRejected
  std::uint64_t key = 0;   ///< canonical store key (0 when not derivable)
  EvalResult result;       ///< engaged for kOk
  StatSelection stats;     ///< which result fields to serialise
};

/// Parses a smtbal.evalreq/1 feed. Malformed input throws InvalidArgument
/// naming `source` and the 1-based line number ("reqs.jsonl:3: ...");
/// duplicate ids, missing meta and scenario+trace conflicts are all
/// rejected at the offending line.
[[nodiscard]] std::vector<EvalRequest> parse_requests(
    std::istream& in, std::string_view source = "<evalreq>");

/// Convenience wrapper: opens `path` (throws InvalidArgument when it
/// cannot be read) and parses it, using the path as the error source.
[[nodiscard]] std::vector<EvalRequest> parse_requests_file(
    const std::string& path);

/// Serialises one response as a single-line smtbal.evalresp/1 JSON record
/// (no trailing newline). Deterministic: identical for any worker count.
[[nodiscard]] std::string to_json_record(const EvalResponse& response);

[[nodiscard]] std::string_view to_string(Status status);

}  // namespace smtbal::service
