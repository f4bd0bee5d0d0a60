// ILP-complementary pairing: co-schedule high-ILP ranks with low-ILP
// ranks on the same core through placement moves.
//
// POWER5-style SMT shares the decode bandwidth of a core between its
// contexts, so two high-ILP threads on one core starve each other while a
// pair of low-ILP threads leaves decode slots idle. This policy watches
// the per-rank sampled IPC (the epoch report's ILP proxy), sorts each
// node's ranks by their smoothed IPC, and deals them back onto the node's
// occupied cores in serpentine order — the highest-ILP rank lands with
// the lowest, the second-highest with the second-lowest, and so on — so
// every core sees roughly the same total ILP demand. The seat *multiset*
// per node never changes (pure permutation, realised as swaps), which
// keeps the policy orthogonal to allocation decisions.
#pragma once

#include <cstdint>
#include <vector>

#include "mpisim/hooks.hpp"
#include "policy/cadence.hpp"

namespace smtbal::policy {

/// Each re-pairing invalidates the engine's sampler predictions for the
/// moved ranks, so the default interval is long: frequent re-pairing
/// trades model fidelity for reactivity.
inline constexpr Cadence kIlpPairingCadence{
    .warmup_epochs = 2, .interval = 8, .smoothing = 0.5};

class IlpPairingPolicy final : public mpisim::BalancePolicy {
 public:
  explicit IlpPairingPolicy(Cadence cadence = kIlpPairingCadence);

  [[nodiscard]] std::string_view name() const override {
    return "ilp-pairing";
  }

  void on_start(mpisim::EngineControl& control) override;
  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override;

  /// Total placement actuations (swaps) issued so far.
  [[nodiscard]] std::uint64_t moves() const { return moves_; }

 private:
  Cadence cadence_;
  std::vector<double> smoothed_ipc_;
  std::uint64_t moves_ = 0;
};

}  // namespace smtbal::policy
