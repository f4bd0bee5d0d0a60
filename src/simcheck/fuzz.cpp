#include "simcheck/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "runner/batch.hpp"
#include "simcheck/differ.hpp"

namespace smtbal::simcheck {

FuzzReport run_fuzz(
    const FuzzOptions& options,
    const std::function<std::optional<std::string>(const ScenarioSpec&)>&
        check) {
  const auto checker =
      check ? check
            : std::function<std::optional<std::string>(const ScenarioSpec&)>(
                  [policies = options.policies](const ScenarioSpec& spec)
                      -> std::optional<std::string> {
                    if (auto d = check_spec(spec)) return d;
                    for (const std::string& policy : policies) {
                      if (auto d = check_policy_spec(spec, policy)) return d;
                    }
                    return std::nullopt;
                  });
  const unsigned jobs =
      runner::resolve_jobs(options.jobs, std::max<std::size_t>(options.count, 1));

  using Clock = std::chrono::steady_clock;
  const bool timed = options.seconds > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             timed ? options.seconds : 0.0));

  FuzzReport report;
  // Seeds run in fixed-size batches: within a batch the workers steal
  // freely (results land in per-seed slots, so order never depends on
  // scheduling); between batches the wall-clock budget is re-checked.
  const std::size_t batch_size = std::max<std::size_t>(16, jobs * std::size_t{4});
  std::size_t done = 0;
  while (done < options.count) {
    if (timed && Clock::now() >= deadline) break;
    const std::size_t n = std::min(batch_size, options.count - done);
    const std::uint64_t base = options.seed_base + done;
    std::vector<std::optional<FuzzFailure>> slots(n);
    runner::parallel_for(jobs, n, [&](std::size_t i, unsigned) {
      const std::uint64_t seed = base + i;
      const ScenarioSpec spec = options.mode == FuzzMode::kFlat
                                    ? random_flat_spec(seed)
                                    : random_spec(seed);
      std::optional<std::string> message;
      try {
        message = checker(spec);
      } catch (const std::exception& e) {
        // check_spec contains its own catch; this guards custom
        // predicates (parallel_for requires a non-throwing fn).
        message = std::string("unhandled exception: ") + e.what();
      }
      if (message) {
        slots[i] = FuzzFailure{seed, spec, spec, std::move(*message)};
      }
    });
    for (auto& slot : slots) {
      if (slot) report.failures.push_back(std::move(*slot));
    }
    done += n;
    report.iterations = done;
  }

  if (options.shrink) {
    // Serial: failures are the rare case, and the shrinker's predicate
    // calls are themselves full simulation runs.
    for (FuzzFailure& failure : report.failures) {
      failure.shrunk = shrink_spec(failure.spec, [&](const ScenarioSpec& cand) {
        try {
          return checker(cand).has_value();
        } catch (const std::exception&) {
          return true;  // a throwing candidate still reproduces a failure
        }
      });
    }
  }
  return report;  // failures are seed-sorted: batches run in seed order
}

}  // namespace smtbal::simcheck
