#include "smt/chip.hpp"

#include "common/error.hpp"

namespace smtbal::smt {

void ChipConfig::validate() const {
  SMTBAL_REQUIRE(num_cores > 0, "chip needs at least one core");
  SMTBAL_REQUIRE(frequency_ghz > 0.0, "frequency must be positive");
  SMTBAL_REQUIRE(memory.num_cores == num_cores,
                 "hierarchy core count must match chip core count");
  core.validate();
  memory.validate();
}

CpuId ChipConfig::cpu(std::uint32_t linear) const {
  SMTBAL_REQUIRE(linear < num_contexts(), "linear CPU number out of range");
  return CpuId{CoreId{linear / core.threads_per_core},
               ThreadSlot{linear % core.threads_per_core}};
}

Chip::Chip(ChipConfig config) : config_(std::move(config)) {
  config_.validate();
  hierarchy_ = std::make_unique<mem::Hierarchy>(config_.memory);
  cores_.reserve(config_.num_cores);
  for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
    cores_.emplace_back(config_.core, *hierarchy_, c);
  }
}

Core& Chip::core(CoreId id) {
  SMTBAL_REQUIRE(id.value() < cores_.size(), "core id out of range");
  return cores_[id.value()];
}

const Core& Chip::core(CoreId id) const {
  SMTBAL_REQUIRE(id.value() < cores_.size(), "core id out of range");
  return cores_[id.value()];
}

void Chip::bind_stream(CpuId cpu, isa::StreamGen* stream) {
  core(cpu.core).bind_stream(cpu.slot, stream);
}

void Chip::set_priority(CpuId cpu, HwPriority priority) {
  core(cpu.core).set_priority(cpu.slot, priority);
}

const ThreadPerf& Chip::perf(CpuId cpu) const {
  return core(cpu.core).perf(cpu.slot);
}

void Chip::step() {
  for (Core& core : cores_) core.step();
}

void Chip::run(Cycle cycles) {
  std::vector<Core*> busy;
  for (Core& core : cores_) {
    if (core.idle()) {
      core.skip_idle(cycles);
    } else {
      busy.push_back(&core);
    }
  }
  for (Cycle i = 0; i < cycles; ++i) {
    for (Core* core : busy) core->step();
  }
}

void Chip::reset() {
  for (Core& core : cores_) {
    core.drain();
    core.reset_perf();
  }
  hierarchy_->reset();
}

}  // namespace smtbal::smt
