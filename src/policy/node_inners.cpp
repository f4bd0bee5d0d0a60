#include "policy/node_inners.hpp"

#include <utility>

namespace smtbal::policy {

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
    inners_[n]->start(control, membership_[n]);
  }
}

void NodeInners::drive(mpisim::EngineControl& control,
                       const mpisim::EpochReport& report) {
  sync(control);
  for (std::uint32_t n = 0; n < membership_.size(); ++n) {
    if (membership_[n].empty()) continue;
    inners_[n]->step(control, report, membership_[n]);
  }
}

}  // namespace smtbal::policy
