#include "workloads/trace_replay.hpp"

#include <fstream>
#include <sstream>
#include <variant>

#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "isa/kernel.hpp"

namespace smtbal::workloads {

namespace {

using jsonl::Field;
using jsonl::Record;
using jsonl::fail;
using jsonl::json_escape;
using jsonl::json_num;
using jsonl::optional_number;
using jsonl::parse_flat_object;
using jsonl::require_count;
using jsonl::require_number;
using jsonl::require_string;

trace::RankState state_from_name(const std::string& name,
                                 std::string_view source, std::size_t line) {
  using trace::RankState;
  for (const RankState state :
       {RankState::kInit, RankState::kCompute, RankState::kComm,
        RankState::kStat, RankState::kPreempted}) {
    if (name == trace::to_string(state)) return state;
  }
  fail(source, line, "unknown interval state '" + name + "'");
}

void emit_prefix(std::ostream& os, const char* type) {
  os << "{\"schema\":\"" << kTraceReplaySchema << "\",\"type\":\"" << type
     << "\"";
}

}  // namespace

mpisim::Application parse_trace(std::istream& in, std::string_view source) {
  mpisim::Application app;
  const auto on_meta = [&](const Record& record, std::size_t line) {
    const std::uint64_t ranks = require_count(record, "ranks", source, line);
    if (ranks == 0) fail(source, line, "meta.ranks must be >= 1");
    app.ranks.resize(ranks);
    if (record.count("name")) {
      app.name = require_string(record, "name", source, line);
    }
  };
  const auto on_interval = [&](const Record& record, std::size_t line) {
    const std::uint64_t rank = require_count(record, "rank", source, line);
    if (rank >= app.ranks.size()) {
      fail(source, line,
           "rank " + std::to_string(rank) + " out of range [0, " +
               std::to_string(app.ranks.size()) + ")");
    }
    mpisim::RankProgram& program = app.ranks[rank];
    const std::string kind = require_string(record, "kind", source, line);
    if (kind == "compute") {
      const std::string kernel_name =
          require_string(record, "kernel", source, line);
      const auto& registry = isa::KernelRegistry::instance();
      if (!registry.contains(kernel_name)) {
        fail(source, line, "unknown kernel '" + kernel_name + "'");
      }
      const double instructions =
          require_number(record, "instructions", source, line);
      if (!(instructions > 0.0)) {
        fail(source, line, "compute.instructions must be > 0");
      }
      trace::RankState traced_as = trace::RankState::kCompute;
      if (record.count("state")) {
        traced_as = state_from_name(
            require_string(record, "state", source, line), source, line);
      }
      program.compute(registry.by_name(kernel_name).id, instructions,
                      traced_as);
    } else if (kind == "delay") {
      const double duration = require_number(record, "duration", source, line);
      if (duration < 0.0) fail(source, line, "delay.duration must be >= 0");
      trace::RankState traced_as = trace::RankState::kStat;
      if (record.count("state")) {
        traced_as = state_from_name(
            require_string(record, "state", source, line), source, line);
      }
      program.delay(duration, traced_as);
    } else if (kind == "barrier") {
      program.barrier();
    } else if (kind == "allreduce") {
      program.allreduce(record.count("bytes")
                            ? require_count(record, "bytes", source, line)
                            : 8);
    } else if (kind == "send" || kind == "recv") {
      const std::uint64_t peer = require_count(record, "peer", source, line);
      if (peer >= app.ranks.size()) {
        fail(source, line,
             kind + ".peer " + std::to_string(peer) + " out of range [0, " +
                 std::to_string(app.ranks.size()) + ")");
      }
      const std::uint64_t bytes = require_count(record, "bytes", source, line);
      const double tag = optional_number(record, "tag", 0.0, source, line);
      if (tag != static_cast<double>(static_cast<int>(tag))) {
        fail(source, line, kind + ".tag must be an integer");
      }
      const auto peer_id = RankId{static_cast<std::uint32_t>(peer)};
      if (kind == "send") {
        program.send(peer_id, bytes, static_cast<int>(tag));
      } else {
        program.recv(peer_id, bytes, static_cast<int>(tag));
      }
    } else if (kind == "waitall") {
      program.wait_all();
    } else {
      fail(source, line, "unknown interval kind '" + kind + "'");
    }
  };
  jsonl::read_feed(in, source, {kTraceReplaySchema, "interval", "trace"},
                   on_meta, on_interval);
  try {
    app.validate();
  } catch (const std::exception& e) {
    throw InvalidArgument(std::string(source) +
                          ": trace compiles to an invalid application: " +
                          e.what());
  }
  return app;
}

mpisim::Application parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidArgument("cannot open trace file '" + path + "'");
  }
  return parse_trace(in, path);
}

std::string emit_trace(const mpisim::Application& app) {
  std::ostringstream os;
  emit_prefix(os, "meta");
  os << ",\"ranks\":" << app.ranks.size() << ",\"name\":\""
     << json_escape(app.name) << "\"}\n";
  const auto& registry = isa::KernelRegistry::instance();
  for (std::size_t r = 0; r < app.ranks.size(); ++r) {
    for (const mpisim::Phase& phase : app.ranks[r].phases) {
      emit_prefix(os, "interval");
      os << ",\"rank\":" << r << ",\"kind\":";
      std::visit(
          [&](const auto& p) {
            using P = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<P, mpisim::ComputePhase>) {
              os << "\"compute\",\"kernel\":\""
                 << json_escape(registry.get(p.kernel).name())
                 << "\",\"instructions\":" << json_num(p.instructions);
              if (p.traced_as != trace::RankState::kCompute) {
                os << ",\"state\":\"" << trace::to_string(p.traced_as) << "\"";
              }
            } else if constexpr (std::is_same_v<P, mpisim::DelayPhase>) {
              os << "\"delay\",\"duration\":" << json_num(p.duration);
              if (p.traced_as != trace::RankState::kStat) {
                os << ",\"state\":\"" << trace::to_string(p.traced_as) << "\"";
              }
            } else if constexpr (std::is_same_v<P, mpisim::BarrierPhase>) {
              os << "\"barrier\"";
            } else if constexpr (std::is_same_v<P, mpisim::AllreducePhase>) {
              os << "\"allreduce\",\"bytes\":" << p.bytes;
            } else if constexpr (std::is_same_v<P, mpisim::SendPhase>) {
              os << "\"send\",\"peer\":" << p.peer.value()
                 << ",\"bytes\":" << p.bytes << ",\"tag\":" << p.tag;
            } else if constexpr (std::is_same_v<P, mpisim::RecvPhase>) {
              os << "\"recv\",\"peer\":" << p.peer.value()
                 << ",\"bytes\":" << p.bytes << ",\"tag\":" << p.tag;
            } else {
              static_assert(std::is_same_v<P, mpisim::WaitAllPhase>);
              os << "\"waitall\"";
            }
          },
          phase);
      os << "}\n";
    }
  }
  return os.str();
}

}  // namespace smtbal::workloads
