// Deterministic pseudo-random number generation for the simulator.
//
// We use xoshiro256** (public-domain, Blackman & Vigna) rather than
// std::mt19937 because it is faster, has a tiny state that copies cheaply
// (streams fork one RNG per instruction stream), and gives identical
// sequences on every platform — reproducibility of experiments is a core
// requirement of the benchmark harness.
#pragma once

#include <array>
#include <cstdint>

namespace smtbal {

/// splitmix64: used to expand a single 64-bit seed into xoshiro state.
/// Also useful on its own for hashing experiment keys.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 — all-purpose 64-bit generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  constexpr explicit Rng(std::uint64_t seed = 0x5eed'0f'5eedULL) { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) {
    for (auto& word : state_) word = splitmix64(seed);
  }

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1). Uses the top 53 bits.
  [[nodiscard]] constexpr double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). Lemire's multiply-shift rejection-free
  /// approximation is fine here: bias is < 2^-32 for our bounds.
  [[nodiscard]] constexpr std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // 128-bit multiply keeps the distribution uniform enough for simulation.
    __extension__ using uint128 = unsigned __int128;
    const uint128 product = static_cast<uint128>((*this)()) * bound;
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] constexpr std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] constexpr bool chance(double p) { return uniform() < p; }

  /// Forks an independent child generator (jump-free: hashes own output).
  [[nodiscard]] constexpr Rng fork() {
    std::uint64_t s = (*this)();
    return Rng(splitmix64(s));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Exponentially distributed sample with the given mean (>0). Used by the
/// OS-noise injector for interrupt inter-arrival times.
[[nodiscard]] double exponential(Rng& rng, double mean);

}  // namespace smtbal
