#include "policy/static_priority.hpp"

#include "common/error.hpp"

namespace smtbal::policy {

StaticPriorityPolicy::StaticPriorityPolicy(std::vector<int> priorities)
    : priorities_(std::move(priorities)) {
  SMTBAL_REQUIRE(!priorities_.empty(), "priority vector must not be empty");
  for (int p : priorities_) {
    SMTBAL_REQUIRE(p >= 1 && p <= 6,
                   "static priorities must be in the OS-settable range 1..6");
  }
}

void StaticPriorityPolicy::on_start(mpisim::EngineControl& control) {
  SMTBAL_REQUIRE(priorities_.size() == control.num_ranks(),
                 "priority vector size must match rank count");
  for (std::size_t r = 0; r < priorities_.size(); ++r) {
    control.set_rank_priority(RankId{static_cast<std::uint32_t>(r)},
                              priorities_[r]);
  }
}

}  // namespace smtbal::policy
