// google-benchmark micro-benchmarks of the simulator itself: cycle-level
// core stepping, cache accesses, stream generation, sampler memoisation
// and the discrete-event engine.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>

#include "isa/kernel.hpp"
#include "isa/stream.hpp"
#include "mem/hierarchy.hpp"
#include "mpisim/engine.hpp"
#include "smt/chip.hpp"
#include "smt/sampler.hpp"

using namespace smtbal;

namespace {

const isa::Kernel& hpc() {
  return isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed);
}

void BM_StreamGen(benchmark::State& state) {
  isa::StreamGen stream(hpc(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamGen);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache cache(mem::CacheConfig{.name = "bench",
                                    .size_bytes = 32 * 1024,
                                    .line_bytes = 128,
                                    .associativity = 4,
                                    .hit_latency = 2});
  std::uint64_t address = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(address, false));
    address += 64;
    address &= (1 << 18) - 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_HierarchyAccess(benchmark::State& state) {
  mem::Hierarchy hierarchy{mem::HierarchyConfig{}};
  std::uint64_t address = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy.access(0, address, false));
    address += 128;
    address &= (1 << 22) - 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

void BM_CoreStepSolo(benchmark::State& state) {
  smt::ChipConfig config;
  smt::Chip chip(config);
  isa::StreamGen stream(hpc(), 1);
  chip.bind_stream(config.cpu(0), &stream);
  for (auto _ : state) {
    chip.step();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["IPC"] = benchmark::Counter(
      static_cast<double>(chip.perf(config.cpu(0)).retired) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CoreStepSolo);

void BM_CoreStepSmtPair(benchmark::State& state) {
  smt::ChipConfig config;
  smt::Chip chip(config);
  isa::StreamGen s0(hpc(), 1), s1(hpc(), 2);
  chip.bind_stream(config.cpu(0), &s0);
  chip.bind_stream(config.cpu(1), &s1);
  for (auto _ : state) {
    chip.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreStepSmtPair);

void BM_CoreStepFourContexts(benchmark::State& state) {
  smt::ChipConfig config;
  smt::Chip chip(config);
  isa::StreamGen s0(hpc(), 1), s1(hpc(), 2), s2(hpc(), 3), s3(hpc(), 4);
  chip.bind_stream(config.cpu(0), &s0);
  chip.bind_stream(config.cpu(1), &s1);
  chip.bind_stream(config.cpu(2), &s2);
  chip.bind_stream(config.cpu(3), &s3);
  for (auto _ : state) {
    chip.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreStepFourContexts);

/// Chip loads for the cold-measurement rung, one per cost regime of the
/// default two-core chip.
enum class ColdShape {
  kBusyPair,     ///< hpc_mixed + spin_wait on core 0, core 1 idle
  kStalledPair,  ///< mem_stress + l2_stress on core 0, core 1 idle
  kIdleChip,     ///< no context engaged
  kFactorised,   ///< a busy pair on each core, certified independent
};

smt::ChipLoad cold_load(ColdShape shape) {
  const auto& registry = isa::KernelRegistry::instance();
  const auto on = [&](std::string_view kernel) {
    return smt::ContextLoad{registry.by_name(kernel).id,
                            smt::HwPriority::kMedium};
  };
  smt::ChipLoad load;
  switch (shape) {
    case ColdShape::kBusyPair:
      load.contexts[0] = on(isa::kKernelHpcMixed);
      load.contexts[1] = on(isa::kKernelSpinWait);
      break;
    case ColdShape::kStalledPair:
      load.contexts[0] = on(isa::kKernelMemStress);
      load.contexts[1] = on(isa::kKernelL2Stress);
      break;
    case ColdShape::kIdleChip:
      break;
    case ColdShape::kFactorised:
      load.contexts[0] = on(isa::kKernelHpcMixed);
      load.contexts[1] = on(isa::kKernelSpinWait);
      load.contexts[2] = on(isa::kKernelCfd);
      load.contexts[3] = on(isa::kKernelSpinWait);
      break;
  }
  return load;
}

/// The sampler's default-grade window, and the 500 + 2,000-cycle window
/// of the fuzzer's and the evaluation service's samplers.
constexpr smt::ThroughputSampler::Options kDefaultGrade{
    .warmup_cycles = 30000, .window_cycles = 120000, .seed = 1};
constexpr smt::ThroughputSampler::Options kFuzzGrade{
    .warmup_cycles = 500, .window_cycles = 2000, .seed = 1};

void BM_SamplerColdMeasurement(benchmark::State& state, ColdShape shape,
                               smt::ThroughputSampler::Options options) {
  // One fresh sampler and one cold sample() (a miss) per iteration; the
  // sampler's construction is timed too, as every cold lookup on a new
  // worker pays it. Items are the core-cycles the measurement covers,
  // num_cores x (warm-up + window), so items/s is simulated core-cycles
  // per second whether the sampler steps a core, skips it as idle or
  // measures cores one by one. busy_core_cycles counts only the cores
  // with a bound context, the ones that are actually stepped: its rate is
  // the cost of a busy core-cycle.
  const smt::ChipConfig chip;
  const smt::ChipLoad load = cold_load(shape);
  std::int64_t busy_cores = 0;
  for (std::uint32_t core = 0; core < chip.num_cores; ++core) {
    const auto first = load.contexts.begin() + core * chip.threads_per_core();
    busy_cores += std::any_of(first, first + chip.threads_per_core(),
                              [](const auto& c) { return c.has_value(); });
  }
  for (auto _ : state) {
    smt::ThroughputSampler sampler(chip, options);
    benchmark::DoNotOptimize(sampler.sample(load));
  }
  const auto cycles = static_cast<std::int64_t>(options.warmup_cycles +
                                                options.window_cycles);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chip.num_cores) * cycles);
  state.counters["busy_core_cycles"] = benchmark::Counter(
      static_cast<double>(state.iterations() * busy_cores * cycles),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_SamplerColdMeasurement, busy_pair, ColdShape::kBusyPair,
                  kDefaultGrade)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SamplerColdMeasurement, stalled_pair,
                  ColdShape::kStalledPair, kDefaultGrade)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SamplerColdMeasurement, idle_chip, ColdShape::kIdleChip,
                  kDefaultGrade)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SamplerColdMeasurement, factorised, ColdShape::kFactorised,
                  kDefaultGrade)
    ->Unit(benchmark::kMillisecond);
// A busy pair at fuzz grade: per-measurement fixed costs (sampler
// construction, cache flush, stream set-up) weigh most here.
BENCHMARK_CAPTURE(BM_SamplerColdMeasurement, fuzz_grade, ColdShape::kBusyPair,
                  kFuzzGrade)
    ->Unit(benchmark::kMillisecond);

void BM_SamplerMemoisedLookup(benchmark::State& state) {
  const auto kernel = hpc().id;
  smt::ThroughputSampler sampler{smt::ChipConfig{}};
  smt::ChipLoad load;
  load.contexts[0] = smt::ContextLoad{kernel, smt::HwPriority::kMedium};
  (void)sampler.sample(load);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(load));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplerMemoisedLookup);

void BM_EngineBarrierApp(benchmark::State& state) {
  // Discrete-event engine throughput: a 4-rank barrier app with a warm
  // shared sampler; measures pure engine overhead per run.
  const auto kernel = hpc().id;
  mpisim::EngineConfig config;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  auto sampler =
      std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);
  mpisim::Application app;
  app.ranks.resize(4);
  for (auto& rank : app.ranks) {
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      rank.compute(kernel, 1e8).barrier();
    }
  }
  const auto placement = mpisim::Placement::identity(4);
  // Warm the sampler outside the timed region: every timed run is served
  // from its memo, so the rung measures the event engine alone.
  (void)mpisim::Engine(app, placement, config, sampler).run();
  for (auto _ : state) {
    mpisim::Engine engine(app, placement, config, sampler);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineBarrierApp)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_EngineBarrierAppWide(benchmark::State& state) {
  // Event-kernel scaling: the same barrier app at 16 ranks on an 8-core
  // chip. With the O(ranks) per-step rescan this grew linearly in rank
  // count per event; the heap-based kernel pays O(log ranks) per pop, so
  // per-barrier cost should stay close to the 4-rank figure.
  const auto kernel = hpc().id;
  mpisim::EngineConfig config;
  config.chip.num_cores = 8;
  config.chip.memory.num_cores = 8;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  auto sampler =
      std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);
  constexpr std::size_t kRanks = 16;
  mpisim::Application app;
  app.ranks.resize(kRanks);
  std::uint64_t spread = 0;
  for (auto& rank : app.ranks) {
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      // Slightly uneven work so ranks finish at distinct times (the
      // worst case for the rescan: every completion is its own step).
      rank.compute(kernel, 1e8 + 1e5 * static_cast<double>(spread % kRanks))
          .barrier();
    }
    ++spread;
  }
  const auto placement = mpisim::Placement::identity(kRanks);
  (void)mpisim::Engine(app, placement, config, sampler).run();  // warm, untimed
  for (auto _ : state) {
    mpisim::Engine engine(app, placement, config, sampler);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * kRanks);
}
BENCHMARK(BM_EngineBarrierAppWide)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
