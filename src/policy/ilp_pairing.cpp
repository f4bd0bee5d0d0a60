#include "policy/ilp_pairing.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "policy/seating.hpp"

namespace smtbal::policy {

IlpPairingPolicy::IlpPairingPolicy(Cadence cadence) : cadence_(cadence) {
  cadence_.validate();
}

void IlpPairingPolicy::on_start(mpisim::EngineControl& control) {
  smoothed_ipc_.assign(control.num_ranks(), 0.0);
}

void IlpPairingPolicy::on_epoch(mpisim::EngineControl& control,
                                const mpisim::EpochReport& report) {
  SMTBAL_CHECK(report.ranks.size() == smoothed_ipc_.size());
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const mpisim::RankEpochStats& stats = report.ranks[r];
    if (stats.priority == 0 || stats.ipc <= 0.0) continue;
    smoothed_ipc_[r] = smoothed_ipc_[r] == 0.0
                           ? stats.ipc
                           : cadence_.smooth(smoothed_ipc_[r], stats.ipc);
  }
  if (!cadence_.due(report.epoch)) return;

  std::vector<SeatAssignment> desired;
  // Each node re-pairs on its own. The pairing is shape-agnostic — it
  // permutes the seats the ranks already occupy — so mixed-width nodes
  // need no special handling.
  for (const std::vector<std::size_t>& ranks :
       live_ranks_by_node(control, report)) {
    if (ranks.size() < 2) continue;
    // The node's seat pool is exactly the seats its ranks occupy today,
    // grouped by core and ordered by slot: pairing permutes occupants, it
    // never colonises empty cores (that is allocation's decision).
    std::map<std::uint32_t, std::vector<CpuId>> seats_of_core;
    for (const std::size_t r : ranks) {
      const CpuId seat = report.ranks[r].cpu;
      seats_of_core[seat.core.value()].push_back(seat);
    }
    std::vector<std::vector<CpuId>> seats;  // per core, ascending core id
    for (auto& [core, core_seats] : seats_of_core) {
      std::sort(core_seats.begin(), core_seats.end(),
                [](const CpuId& a, const CpuId& b) { return a.slot < b.slot; });
      seats.push_back(std::move(core_seats));
    }
    const std::vector<std::size_t> order = heaviest_first(ranks, smoothed_ipc_);
    // Serpentine deal: pass 0 hands the highest-IPC ranks to the cores in
    // ascending order, pass 1 runs descending, ... so each core's total
    // smoothed IPC comes out roughly even (high paired with low).
    std::size_t next = 0;
    std::vector<std::size_t> used(seats.size(), 0);
    for (std::size_t pass = 0; next < order.size(); ++pass) {
      const bool forward = pass % 2 == 0;
      for (std::size_t i = 0; i < seats.size() && next < order.size(); ++i) {
        const std::size_t c = forward ? i : seats.size() - 1 - i;
        if (used[c] >= seats[c].size()) continue;
        desired.push_back({RankId{static_cast<std::uint32_t>(order[next])},
                           seats[c][used[c]]});
        ++used[c];
        ++next;
      }
      SMTBAL_CHECK(pass <= order.size());  // every pass with seats left progresses
    }
  }
  moves_ += apply_seating(control, desired);
}

}  // namespace smtbal::policy
