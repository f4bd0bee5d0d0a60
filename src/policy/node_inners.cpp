#include "policy/node_inners.hpp"

#include <utility>

namespace smtbal::policy {

namespace {

/// One node's view of the engine: local rank ids 0..k-1 map onto the
/// node's global ranks, placement() is the node's slice of the seats
/// (written into `seats`) and threads_per_core() the node's SMT width
/// (nodes may differ on a heterogeneous cluster). Every other call keeps
/// the EngineControl defaults.
class NodeView final : public mpisim::EngineControl {
 public:
  NodeView(mpisim::EngineControl& global,
           const std::vector<std::size_t>& ranks, std::uint32_t node,
           mpisim::Placement& seats)
      : global_(global),
        ranks_(ranks),
        placement_(seats),
        threads_per_core_(global.threads_per_core_of(node)) {
    seats.cpu_of_rank.clear();
    for (const std::size_t g : ranks) {
      seats.cpu_of_rank.push_back(global.placement().cpu_of_rank[g]);
    }
  }

  void set_rank_priority(RankId rank, int priority) override {
    global_.set_rank_priority(global_id(rank), priority);
  }
  [[nodiscard]] int rank_priority(RankId rank) const override {
    return global_.rank_priority(global_id(rank));
  }
  [[nodiscard]] const mpisim::Placement& placement() const override {
    return placement_;
  }
  [[nodiscard]] std::size_t num_ranks() const override {
    return ranks_.size();
  }
  [[nodiscard]] os::KernelModel& kernel() override { return global_.kernel(); }
  [[nodiscard]] std::uint32_t threads_per_core() const override {
    return threads_per_core_;
  }

 private:
  [[nodiscard]] RankId global_id(RankId local) const {
    return RankId{static_cast<std::uint32_t>(ranks_[local.value()])};
  }

  mpisim::EngineControl& global_;
  const std::vector<std::size_t>& ranks_;
  const mpisim::Placement& placement_;
  std::uint32_t threads_per_core_;
};

}  // namespace

void NodeInners::start(mpisim::EngineControl& control) {
  membership_.clear();
  inners_.clear();
  sync(control);
}

void NodeInners::sync(mpisim::EngineControl& control) {
  // Nothing to redo while every rank is still on the node it was on.
  const std::uint32_t num_nodes = control.num_nodes();
  bool moved = membership_.size() != num_nodes;
  for (std::uint32_t n = 0; n < num_nodes && !moved; ++n) {
    for (const std::size_t g : membership_[n]) {
      const RankId rank{static_cast<std::uint32_t>(g)};
      moved = moved || control.node_of(rank) != n;
    }
  }
  if (!moved) return;
  std::vector<std::vector<std::size_t>> current(num_nodes);
  for (std::size_t r = 0; r < control.num_ranks(); ++r) {
    current[control.node_of(RankId{static_cast<std::uint32_t>(r)})]
        .push_back(r);
  }
  membership_.resize(num_nodes);
  inners_.resize(num_nodes);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    if (inners_[n] != nullptr && membership_[n] == current[n]) continue;
    membership_[n] = std::move(current[n]);
    inners_[n] = std::make_unique<DynamicBalancer>(config_);
    if (membership_[n].empty()) continue;
    NodeView view(control, membership_[n], n, seats_);
    inners_[n]->on_start(view);
  }
}

void NodeInners::drive(mpisim::EngineControl& control,
                       const mpisim::EpochReport& report) {
  sync(control);
  for (std::uint32_t n = 0; n < membership_.size(); ++n) {
    if (membership_[n].empty()) continue;
    slice_.epoch = report.epoch;
    slice_.now = report.now;
    slice_.ranks.clear();
    for (const std::size_t g : membership_[n]) {
      slice_.ranks.push_back(report.ranks[g]);
    }
    NodeView view(control, membership_[n], n, seats_);
    inners_[n]->on_epoch(view, slice_);
  }
}

}  // namespace smtbal::policy
