// The paper's balancing approach: a static per-rank hardware-priority
// assignment installed once at application start through the patched
// kernel's /proc/<pid>/hmt_priority interface (paper §VI-B, §VII).
#pragma once

#include <vector>

#include "mpisim/hooks.hpp"

namespace smtbal::policy {

class StaticPriorityPolicy final : public mpisim::BalancePolicy {
 public:
  /// `priorities[r]` is rank r's hardware priority for the whole run.
  explicit StaticPriorityPolicy(std::vector<int> priorities);

  [[nodiscard]] std::string_view name() const override { return "static"; }

  void on_start(mpisim::EngineControl& control) override;

 private:
  std::vector<int> priorities_;
};

}  // namespace smtbal::policy
