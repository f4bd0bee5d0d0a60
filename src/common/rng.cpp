#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace smtbal {

double exponential(Rng& rng, double mean) {
  SMTBAL_REQUIRE(mean > 0.0, "exponential() requires a positive mean");
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - rng.uniform());
}

}  // namespace smtbal
