#include "policy/advisor.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "policy/static_priority.hpp"

namespace smtbal::policy {

AdvisorResult advise(const mpisim::Application& app,
                     const std::vector<std::vector<std::uint32_t>>& placements,
                     const std::vector<int>& levels,
                     const runner::BatchRunner& runner,
                     const mpisim::EngineConfig& config) {
  SMTBAL_REQUIRE(!levels.empty(), "need at least one priority level");
  for (const int p : levels) {
    SMTBAL_REQUIRE(p >= 1 && p <= 6, "priority levels must be in 1..6");
  }
  const std::size_t n = app.size();
  const std::uint32_t slots = config.chip.threads_per_core();
  std::vector<mpisim::Placement> seats;
  for (const auto& linear : placements) {
    SMTBAL_REQUIRE(linear.size() == n, "placement size must match rank count");
    seats.push_back(mpisim::Placement::from_linear(linear, slots));
  }
  if (seats.empty()) seats.push_back(mpisim::Placement::identity(n, slots));
  std::size_t vectors = 1;
  for (std::size_t r = 0; r < n; ++r) {
    vectors *= levels.size();
    SMTBAL_REQUIRE(vectors * seats.size() <= kMaxAdvisorCandidates,
                   "search space exceeds kMaxAdvisorCandidates");
  }

  AdvisorResult result;
  std::vector<runner::RunSpec> specs;
  for (const mpisim::Placement& placement : seats) {
    for (std::size_t v = 0; v < vectors; ++v) {
      std::vector<int> priorities(n);
      for (std::size_t r = 0, code = v; r < n; ++r, code /= levels.size()) {
        priorities[r] = levels[code % levels.size()];
      }
      result.ranked.push_back({placement, priorities, 0.0, 0.0});
      runner::RunSpec& spec = specs.emplace_back();
      spec.label = describe(result.ranked.back(), slots);
      spec.app = app;
      spec.placement = placement;
      spec.config = config;
      spec.make_policy = [priorities] {
        return std::make_unique<StaticPriorityPolicy>(priorities);
      };
    }
  }
  result.batch = runner.run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const runner::RunOutcome& out = result.batch.runs[i];
    if (!out.ok) {
      throw SimulationError("candidate " + out.label + " failed: " + out.error);
    }
    result.ranked[i].exec_time = out.result->exec_time;
    result.ranked[i].imbalance = out.result->imbalance;
  }
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const AdvisorCandidate& a, const AdvisorCandidate& b) {
                     return a.exec_time < b.exec_time;
                   });
  return result;
}

std::string describe(const AdvisorCandidate& candidate,
                     std::uint32_t slots_per_core) {
  std::ostringstream os;
  os << "cpus[";
  for (std::size_t r = 0; r < candidate.placement.cpu_of_rank.size(); ++r) {
    os << (r != 0 ? "," : "")
       << candidate.placement.cpu_of_rank[r].linear(slots_per_core);
  }
  os << "] prio[";
  for (std::size_t r = 0; r < candidate.priorities.size(); ++r) {
    os << (r != 0 ? "," : "") << candidate.priorities[r];
  }
  os << ']';
  return os.str();
}

}  // namespace smtbal::policy
