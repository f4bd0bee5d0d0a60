// Seeded inputs of the three perfbench workloads.
//
// Every input is a pure function of the workload seed: the sweep corpora
// (paper cases, workload families, clusters and fuzz draws) and the
// service-open request schedule. The simulator only ever sees what these
// functions generate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/engine.hpp"
#include "cluster/placement.hpp"
#include "mpisim/engine.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/phase.hpp"
#include "runner/batch.hpp"
#include "service/request.hpp"

namespace perfbench {

using namespace smtbal;

/// One corpus scenario: an application plus the engine it runs on.
struct Scenario {
  std::string name;
  mpisim::Application app;
  mpisim::Placement placement;
  mpisim::EngineConfig config{};
  std::optional<cluster::ClusterPlacement> cluster_placement;
  std::optional<cluster::ClusterConfig> cluster_config;

  [[nodiscard]] const mpisim::EngineConfig& node_config() const {
    return cluster_config ? cluster_config->node : config;
  }
};
using ScenarioPtr = std::shared_ptr<const Scenario>;

/// sweep-cold: paper cases, the 4-core workload families, the three
/// clusters and seed-picked fuzz scenarios, all on the default sampler
/// window.
[[nodiscard]] std::vector<ScenarioPtr> cold_corpus(std::uint64_t seed);

/// sweep-warm: event-heavy runs (full BT-MZ, SIESTA, long stencil and
/// straggler runs, migrate-varying) with seed-varied load details.
[[nodiscard]] std::vector<ScenarioPtr> warm_corpus(std::uint64_t seed);

/// "none" followed by every registered policy, in registry order.
[[nodiscard]] std::vector<std::string> tournament_entrants();

/// Builds the policy `entrant` ("none" = no policy) for `scenario`.
[[nodiscard]] std::unique_ptr<mpisim::BalancePolicy> make_entrant(
    const Scenario& scenario, const std::string& entrant);

/// One cell of a run matrix: a scenario under one policy entrant.
struct Entry {
  ScenarioPtr scenario;
  std::string entrant;
};

/// Every scenario against every entrant, scenario-major.
[[nodiscard]] std::vector<Entry> tournament(
    const std::vector<ScenarioPtr>& corpus,
    const std::vector<std::string>& entrants);

/// The scenario a service request names (its ScenarioSpec one-liner,
/// built exactly as the service builds it) paired with its policy.
[[nodiscard]] Entry service_entry(const service::EvalRequest& request);

/// Called at the start of every run, on the executing worker, with the
/// run's matrix index; may wrap the freshly built policy (nullptr for
/// "none"). At one worker, runs execute in matrix order, so the calls
/// mark run boundaries.
using RunHook = std::function<std::unique_ptr<mpisim::BalancePolicy>(
    std::size_t index, std::unique_ptr<mpisim::BalancePolicy> policy)>;

/// BatchRunner specs for a matrix. A null hook leaves policies unwrapped.
[[nodiscard]] std::vector<runner::RunSpec> run_specs(
    const std::vector<Entry>& matrix, const RunHook& hook = {});

/// One request of the service-open schedule.
struct ScheduledRequest {
  double send_at_s = 0.0;  ///< offset from the start of the timed phase
  service::EvalRequest request;
  bool fresh = false;  ///< first and only arrival of a not-yet-stored spec
};

struct ServiceSchedule {
  /// Interactive what-if queries, evaluated during set-up so that the
  /// timed phase serves them from the journal.
  std::vector<service::EvalRequest> hot_set;
  /// Fresh batch-lane requests: each is a cold evaluation and a journal
  /// append when it first arrives.
  std::vector<service::EvalRequest> fresh;
  std::vector<ScheduledRequest> arrivals;  ///< in send order
};

struct ServiceLoad {
  double rate_per_s = 0.0;        ///< offered requests per second
  double seconds = 0.0;           ///< schedule length
  double interactive_share = 0.0;
  double fresh_share = 0.0;       ///< share of batch requests that are fresh
  std::size_t hot_set = 0;
  double zipf_s = 0.0;
};

/// The fixed open-loop schedule for `load`, derived from `seed`: Poisson
/// arrivals, Zipf-repeated interactive queries over the hot set, batch
/// requests mixing hot repeats with a trickle of fresh specs.
[[nodiscard]] ServiceSchedule service_schedule(std::uint64_t seed,
                                               const ServiceLoad& load);

}  // namespace perfbench
