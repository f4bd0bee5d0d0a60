// Offline priority advisor: exhaustive search over (placement, priority)
// assignments by simulation.
//
// The paper chooses its case configurations by expert reasoning (§VII-B:
// "this mapping seems reasonable, for our goal is..."). The advisor
// automates that step: every candidate is one static-priority RunSpec,
// the batch runs through runner::BatchRunner, and the candidates are
// ranked by execution time — a deployment tool (autotune_mapping) and the
// mapping-sensitivity ablation (bench_ablation_mapping).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpisim/engine.hpp"
#include "runner/batch.hpp"

namespace smtbal::policy {

struct AdvisorCandidate {
  mpisim::Placement placement;
  std::vector<int> priorities;
  SimTime exec_time = 0.0;
  double imbalance = 0.0;
};

/// Largest search advise() accepts (placements x priority vectors); a
/// bigger space throws before anything runs.
inline constexpr std::size_t kMaxAdvisorCandidates = 4096;

struct AdvisorResult {
  /// Every candidate, fastest first. The sort is stable: tied candidates
  /// keep enumeration order (placements outer, then priority vectors with
  /// rank 0's level varying fastest), so the ranking is the same for any
  /// worker count.
  std::vector<AdvisorCandidate> ranked;
  /// The runs in enumeration order, for JSONL records and summaries.
  runner::BatchResult batch;
};

/// Simulates every pairing of a placement from `placements` (linear CPU
/// numbers per rank; none = the identity placement) with a per-rank
/// priority vector over `levels` (each in 1..6). Throws InvalidArgument
/// on an empty or oversized space, SimulationError if a candidate fails.
[[nodiscard]] AdvisorResult advise(
    const mpisim::Application& app,
    const std::vector<std::vector<std::uint32_t>>& placements,
    const std::vector<int>& levels, const runner::BatchRunner& runner,
    const mpisim::EngineConfig& config = {});

/// Formats a candidate like "cpus[0,2,3,1] prio[4,4,6,6]". The linear CPU
/// numbering depends on the chip shape; `slots_per_core` defaults to the
/// paper's 2-way cores.
[[nodiscard]] std::string describe(
    const AdvisorCandidate& candidate,
    std::uint32_t slots_per_core = smt::kThreadsPerCore);

}  // namespace smtbal::policy
