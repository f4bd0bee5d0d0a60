// Trace ingestion: the smtbal.trace-replay/1 JSONL format.
//
// A replay trace is a JSON-Lines file describing per-rank interval
// sequences, compiled into the simulator's phase programs. The first
// record is the meta header, every following record one interval:
//
//   {"schema":"smtbal.trace-replay/1","type":"meta","ranks":4,"name":"x"}
//   {"schema":"smtbal.trace-replay/1","type":"interval","rank":0,
//    "kind":"compute","kernel":"hpc_mixed","instructions":1e9}
//
// Interval kinds and their fields:
//   compute   kernel (registry name), instructions (> 0),
//             state (optional: compute|init|stat|comm, default compute)
//   delay     duration (seconds, >= 0),
//             state (optional: stat|compute|comm|init|preempted)
//   barrier   —
//   allreduce bytes (optional, default 8)
//   send      peer, bytes, tag (optional, default 0)
//   recv      peer, bytes, tag (optional, default 0)
//   waitall   —
//
// Intervals replay in file order within each rank; ranks interleave
// freely. The compiled Application passes the usual structural
// validation (matched collectives and sends/recvs), so a trace that
// would deadlock is rejected at parse time.
//
// emit_trace serialises a phase program losslessly (parse ∘ emit is the
// identity); the evaluation service keys trace requests on that text.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "mpisim/phase.hpp"
#include "trace/tracer.hpp"

namespace smtbal::workloads {

inline constexpr std::string_view kTraceReplaySchema = "smtbal.trace-replay/1";

/// Parses a smtbal.trace-replay/1 stream into an Application. Malformed
/// input throws InvalidArgument naming `source` and the 1-based line
/// number ("trace.jsonl:7: ...").
[[nodiscard]] mpisim::Application parse_trace(
    std::istream& in, std::string_view source = "<trace>");

/// Convenience wrapper: opens `path` (throws InvalidArgument when it
/// cannot be read) and parses it, using the path as the error source.
[[nodiscard]] mpisim::Application parse_trace_file(const std::string& path);

/// Serialises an Application losslessly into the trace format.
[[nodiscard]] std::string emit_trace(const mpisim::Application& app);

}  // namespace smtbal::workloads
