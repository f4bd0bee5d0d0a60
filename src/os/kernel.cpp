#include "os/kernel.hpp"

#include <utility>

#include "common/error.hpp"

namespace smtbal::os {

KernelModel::KernelModel(KernelFlavor flavor, const smt::ChipConfig& chip)
    : flavor_(flavor),
      chip_(chip),
      cpu_priority_(chip.num_contexts(), smt::kDefaultPriority),
      cpu_process_(chip.num_contexts()) {}

std::size_t KernelModel::index(CpuId cpu) const {
  const std::uint32_t linear = cpu.linear(chip_.threads_per_core());
  SMTBAL_REQUIRE(linear < cpu_priority_.size(), "CPU out of range");
  return linear;
}

Pid KernelModel::spawn(CpuId cpu) {
  const std::size_t i = index(cpu);
  SMTBAL_REQUIRE(!cpu_process_[i].has_value(),
                 "CPU already hosts a pinned process");
  const Pid pid{next_pid_++};
  cpu_process_[i] = pid;
  process_cpu_.emplace(pid, cpu);
  cpu_priority_[i] = smt::kDefaultPriority;
  return pid;
}

void KernelModel::exit_process(Pid pid) {
  const auto it = process_cpu_.find(pid);
  SMTBAL_REQUIRE(it != process_cpu_.end(), "unknown pid");
  const std::size_t i = index(it->second);
  cpu_process_[i].reset();
  // The idle loop lowers the priority and eventually shuts the thread off
  // (paper §VI-A case 3); we model the steady state directly.
  cpu_priority_[i] = smt::HwPriority::kOff;
  process_cpu_.erase(it);
}

void KernelModel::migrate(Pid pid, CpuId to) {
  const auto it = process_cpu_.find(pid);
  SMTBAL_REQUIRE(it != process_cpu_.end(), "unknown pid");
  const std::size_t from_i = index(it->second);
  const std::size_t to_i = index(to);
  if (to_i == from_i) return;
  if (cpu_process_[to_i].has_value()) {
    throw InvalidArgument(
        "migrate: target CPU (core " + std::to_string(to.core.value()) +
        ", slot " + std::to_string(to.slot.value()) + ") already hosts pid " +
        std::to_string(cpu_process_[to_i]->value()));
  }
  cpu_process_[to_i] = pid;
  cpu_priority_[to_i] = cpu_priority_[from_i];
  cpu_process_[from_i].reset();
  // The vacated context goes idle, same steady state as exit_process.
  cpu_priority_[from_i] = smt::HwPriority::kOff;
  it->second = to;
}

void KernelModel::swap_processes(Pid a, Pid b) {
  const auto it_a = process_cpu_.find(a);
  const auto it_b = process_cpu_.find(b);
  SMTBAL_REQUIRE(it_a != process_cpu_.end(), "unknown pid");
  SMTBAL_REQUIRE(it_b != process_cpu_.end(), "unknown pid");
  SMTBAL_REQUIRE(a != b, "swap_processes needs two distinct pids");
  const std::size_t i_a = index(it_a->second);
  const std::size_t i_b = index(it_b->second);
  std::swap(cpu_process_[i_a], cpu_process_[i_b]);
  std::swap(cpu_priority_[i_a], cpu_priority_[i_b]);
  std::swap(it_a->second, it_b->second);
}

std::optional<Pid> KernelModel::process_on(CpuId cpu) const {
  return cpu_process_[index(cpu)];
}

CpuId KernelModel::cpu_of(Pid pid) const {
  const auto it = process_cpu_.find(pid);
  SMTBAL_REQUIRE(it != process_cpu_.end(), "unknown pid");
  return it->second;
}

void KernelModel::set_priority_ornop(Pid pid, smt::HwPriority priority,
                                     smt::PrivilegeLevel level) {
  SMTBAL_REQUIRE(smt::can_set(level, priority),
                 "privilege level cannot set this hardware priority");
  cpu_priority_[index(cpu_of(pid))] = priority;
}

void KernelModel::write_hmt_priority(Pid pid, int priority) {
  SMTBAL_REQUIRE(flavor_ == KernelFlavor::kPatched,
                 "/proc/<pid>/hmt_priority: no such file (vanilla kernel)");
  SMTBAL_REQUIRE(priority >= 1 && priority <= 6,
                 "hmt_priority accepts the OS-settable range 1..6");
  cpu_priority_[index(cpu_of(pid))] = smt::priority_from_int(priority);
}

void KernelModel::reset_on_kernel_entry(CpuId cpu) {
  if (flavor_ != KernelFlavor::kVanilla) return;
  const std::size_t i = index(cpu);
  if (!cpu_process_[i].has_value()) return;  // idle context: nothing to reset
  if (cpu_priority_[i] != smt::kDefaultPriority) {
    cpu_priority_[i] = smt::kDefaultPriority;
    ++priority_resets_;
  }
}

void KernelModel::on_interrupt(CpuId cpu) { reset_on_kernel_entry(cpu); }

smt::HwPriority KernelModel::effective_priority(CpuId cpu) const {
  return cpu_priority_[index(cpu)];
}

}  // namespace smtbal::os
