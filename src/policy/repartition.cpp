#include "policy/repartition.hpp"

#include <algorithm>
#include <utility>

#include "cluster/comm_graph.hpp"
#include "cluster/partition.hpp"
#include "common/error.hpp"
#include "mpisim/node_control.hpp"
#include "mpisim/phase.hpp"
#include "smt/priority.hpp"

namespace smtbal::policy {

namespace {

constexpr double kEps = 1e-12;

/// Per-message fixed overhead folded into the partitioner's edge weights,
/// so chatty small-message pairs attract each other as strongly as bulky
/// ones (latency-bound traffic is what co-location saves).
constexpr double kPerMessageBytes = 1024.0;

}  // namespace

void RepartitionConfig::validate() const {
  SMTBAL_REQUIRE(threshold > 0.0, "threshold must be > 0");
  SMTBAL_REQUIRE(hysteresis >= 0.0 && hysteresis <= threshold,
                 "hysteresis must be in [0, threshold]");
  SMTBAL_REQUIRE(budget >= 0, "budget must be >= 0");
  SMTBAL_REQUIRE(interval >= 1, "interval must be >= 1");
  SMTBAL_REQUIRE(warmup_epochs >= 0, "warmup_epochs must be >= 0");
  SMTBAL_REQUIRE(smoothing > 0.0 && smoothing <= 1.0,
                 "smoothing must be in (0,1]");
  SMTBAL_REQUIRE(tolerance >= 0.0, "tolerance must be >= 0");
  inner.validate();
}

RepartitionPolicy::RepartitionPolicy(RepartitionConfig config)
    : config_(config) {
  config_.validate();
}

RepartitionPolicy::~RepartitionPolicy() = default;

void RepartitionPolicy::on_start(mpisim::EngineControl& control) {
  num_nodes_ = control.num_nodes();
  smoothed_.assign(control.num_ranks(), 0.0);
  have_loads_ = false;
  armed_ = true;
  epochs_seen_ = 0;
  migrations_done_ = 0;
  waves_ = 0;
  membership_.clear();
  inners_.clear();
  sync_inners(control);
}

void RepartitionPolicy::on_epoch(mpisim::EngineControl& control,
                                 const mpisim::EpochReport& report) {
  SMTBAL_CHECK(report.ranks.size() == smoothed_.size());
  ++epochs_seen_;
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const double raw = report.ranks[r].compute;
    smoothed_[r] = have_loads_ ? config_.smoothing * raw +
                                     (1.0 - config_.smoothing) * smoothed_[r]
                               : raw;
  }
  have_loads_ = true;
  // Inners first: they react to the epoch just observed on the seats the
  // ranks actually occupied during it; a repartition wave then lands on
  // freshly retuned nodes.
  drive_inners(control, report);
  maybe_repartition(control);
}

void RepartitionPolicy::sync_inners(mpisim::EngineControl& control) {
  std::vector<std::vector<std::size_t>> current(num_nodes_);
  for (std::size_t r = 0; r < control.num_ranks(); ++r) {
    current[control.node_of(RankId{static_cast<std::uint32_t>(r)})]
        .push_back(r);
  }
  membership_.resize(num_nodes_);
  inners_.resize(num_nodes_);
  const mpisim::Placement& within = control.placement();
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    if (inners_[n] != nullptr && membership_[n] == current[n]) continue;
    // The inner's state (wait averages, per-core gaps) is local-index
    // based: any membership change invalidates it wholesale, so start a
    // fresh controller rather than remap.
    membership_[n] = std::move(current[n]);
    inners_[n] = std::make_unique<core::DynamicBalancer>(config_.inner);
    if (membership_[n].empty()) continue;
    mpisim::NodeControl adapter(control, membership_[n], within,
                                control.threads_per_core_of(n));
    inners_[n]->on_start(adapter);
  }
}

void RepartitionPolicy::drive_inners(mpisim::EngineControl& control,
                                     const mpisim::EpochReport& report) {
  sync_inners(control);
  const mpisim::Placement& within = control.placement();
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    if (membership_[n].empty()) continue;
    mpisim::EpochReport slice;
    slice.epoch = report.epoch;
    slice.now = report.now;
    slice.ranks.reserve(membership_[n].size());
    for (const std::size_t g : membership_[n]) {
      slice.ranks.push_back(report.ranks[g]);
    }
    mpisim::NodeControl adapter(control, membership_[n], within,
                                control.threads_per_core_of(n));
    inners_[n]->on_epoch(adapter, slice);
  }
}

void RepartitionPolicy::maybe_repartition(mpisim::EngineControl& control) {
  if (num_nodes_ < 2) return;
  const cluster::CommGraph* traffic = control.comm_graph();
  if (traffic == nullptr) return;
  if (epochs_seen_ <= config_.warmup_epochs) return;
  if (epochs_seen_ % config_.interval != 0) return;

  std::vector<double> node_load(num_nodes_, 0.0);
  double total = 0.0;
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    for (const std::size_t g : membership_[n]) node_load[n] += smoothed_[g];
    total += node_load[n];
  }
  const double mean = total / static_cast<double>(num_nodes_);
  if (mean <= kEps) return;
  const double fli =
      *std::max_element(node_load.begin(), node_load.end()) / mean - 1.0;
  if (!armed_) {
    if (fli < config_.threshold - config_.hysteresis) armed_ = true;
    return;
  }
  if (fli <= config_.threshold) return;

  const auto num_ranks = static_cast<std::uint32_t>(control.num_ranks());
  cluster::PartitionGraph graph(num_ranks);
  for (std::uint32_t r = 0; r < num_ranks; ++r) {
    graph.set_vertex_weight(r, smoothed_[r]);
  }
  traffic->for_each_edge([&](std::uint32_t src, std::uint32_t dst,
                             const cluster::CommGraph::Edge& edge) {
    if (src >= num_ranks || dst >= num_ranks) return;
    graph.add_edge(src, dst,
                   static_cast<double>(edge.bytes) +
                       kPerMessageBytes * static_cast<double>(edge.count));
  });
  std::vector<std::uint32_t> capacities(num_nodes_, 0);
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    capacities[n] = control.num_cores_of(n) * control.threads_per_core_of(n);
  }
  cluster::PartitionOptions options;
  options.capacities = capacities;
  options.tolerance = config_.tolerance;
  options.seed = waves_;  // distinct-but-deterministic tie rotation per wave
  const cluster::PartitionResult cut = cluster::partition(graph, options);

  // Match parts to nodes by current-assignment overlap so a wave moves
  // only the ranks that must move. The partitioner balanced part p
  // against capacities[p] (= node p), so any permutation must re-check
  // seat feasibility; when the greedy matching cannot seat a part, the
  // identity mapping — feasible by construction — is the fallback.
  std::vector<std::uint32_t> part_seats(num_nodes_, 0);
  for (std::uint32_t r = 0; r < num_ranks; ++r) {
    ++part_seats[cut.part_of_vertex[r]];
  }
  std::vector<std::vector<std::uint32_t>> overlap(
      num_nodes_, std::vector<std::uint32_t>(num_nodes_, 0));
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    for (const std::size_t g : membership_[n]) {
      ++overlap[cut.part_of_vertex[g]][n];
    }
  }
  struct Pairing {
    std::uint32_t overlap;
    std::uint32_t part;
    std::uint32_t node;
  };
  std::vector<Pairing> pairings;
  pairings.reserve(static_cast<std::size_t>(num_nodes_) * num_nodes_);
  for (std::uint32_t p = 0; p < num_nodes_; ++p) {
    for (std::uint32_t n = 0; n < num_nodes_; ++n) {
      pairings.push_back({overlap[p][n], p, n});
    }
  }
  std::stable_sort(pairings.begin(), pairings.end(),
                   [](const Pairing& a, const Pairing& b) {
                     return a.overlap > b.overlap;
                   });
  const std::uint32_t unset = num_nodes_;
  std::vector<std::uint32_t> node_of_part(num_nodes_, unset);
  std::vector<bool> node_taken(num_nodes_, false);
  for (const Pairing& pair : pairings) {
    if (node_of_part[pair.part] != unset || node_taken[pair.node]) continue;
    if (part_seats[pair.part] > capacities[pair.node]) continue;
    node_of_part[pair.part] = pair.node;
    node_taken[pair.node] = true;
  }
  bool feasible = true;
  for (std::uint32_t p = 0; p < num_nodes_ && feasible; ++p) {
    if (node_of_part[p] != unset) continue;
    std::uint32_t pick = unset;
    for (std::uint32_t n = 0; n < num_nodes_; ++n) {
      if (!node_taken[n] && part_seats[p] <= capacities[n]) {
        pick = n;
        break;
      }
    }
    if (pick == unset) {
      feasible = false;
      break;
    }
    node_of_part[p] = pick;
    node_taken[pick] = true;
  }
  if (!feasible) {
    for (std::uint32_t p = 0; p < num_nodes_; ++p) node_of_part[p] = p;
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending;  // rank, node
  for (std::uint32_t r = 0; r < num_ranks; ++r) {
    // Priority 0 = the rank already exited; migrating it would be an
    // engine no-op that still burns budget and seat bookkeeping.
    if (control.rank_priority(RankId{r}) == 0) continue;
    const std::uint32_t target = node_of_part[cut.part_of_vertex[r]];
    if (target != control.node_of(RankId{r})) pending.emplace_back(r, target);
  }
  if (pending.empty()) {
    armed_ = false;  // as balanced as the partitioner can make it
    return;
  }
  // A wave needing more moves than the remaining budget is skipped
  // outright: a partial repartition can strand a communicating clique
  // half-moved, which is worse than leaving the imbalance alone.
  if (migrations_done_ + static_cast<int>(pending.size()) > config_.budget) {
    return;
  }

  // Multi-round actuation: each round migrates every pending rank whose
  // target node has a free seat; seats freed by this round's moves unlock
  // the next. A cyclic remainder with zero free seats simply stays put.
  std::vector<std::vector<bool>> seat_used(num_nodes_);
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    seat_used[n].assign(capacities[n], false);
  }
  const mpisim::Placement& within = control.placement();
  for (std::uint32_t r = 0; r < num_ranks; ++r) {
    const std::uint32_t n = control.node_of(RankId{r});
    seat_used[n][within.cpu_of_rank[r].linear(
        control.threads_per_core_of(n))] = true;
  }
  bool progress = true;
  while (!pending.empty() && progress) {
    progress = false;
    for (auto it = pending.begin(); it != pending.end();) {
      const std::uint32_t rank = it->first;
      const std::uint32_t target = it->second;
      // Land on the least-occupied core (smallest linear seat among
      // ties): co-locating a migrant with a resident rank recreates the
      // SMT contention the wave set out to relieve.
      const std::uint32_t target_tpc = control.threads_per_core_of(target);
      std::uint32_t seat = capacities[target];
      std::uint32_t seat_mates = target_tpc;
      for (std::uint32_t s = 0; s < capacities[target]; ++s) {
        if (seat_used[target][s]) continue;
        const std::uint32_t core = s / target_tpc;
        std::uint32_t mates = 0;
        for (std::uint32_t t = core * target_tpc;
             t < (core + 1) * target_tpc && t < capacities[target]; ++t) {
          if (seat_used[target][t]) ++mates;
        }
        if (seat == capacities[target] || mates < seat_mates) {
          seat = s;
          seat_mates = mates;
        }
      }
      if (seat == capacities[target]) {
        ++it;
        continue;
      }
      const std::uint32_t from = control.node_of(RankId{rank});
      const std::uint32_t old_seat = within.cpu_of_rank[rank].linear(
          control.threads_per_core_of(from));
      control.migrate_rank(RankId{rank}, target,
                           CpuId{CoreId{seat / target_tpc},
                                 ThreadSlot{seat % target_tpc}});
      seat_used[target][seat] = true;
      seat_used[from][old_seat] = false;
      ++migrations_done_;
      it = pending.erase(it);
      progress = true;
    }
  }
  ++waves_;
  armed_ = false;
}

}  // namespace smtbal::policy
