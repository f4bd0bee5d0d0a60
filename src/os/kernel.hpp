// Linux kernel model for hardware-priority management (paper §VI).
//
// Two flavours are modeled:
//
//  * kVanilla — standard Linux 2.6.19 behaviour: users may set only
//    priorities 2..4 via the or-nop interface; the kernel resets the
//    hardware priority to MEDIUM every time it enters an interrupt or
//    syscall handler (it does not track the current priority); the idle
//    loop lowers the idle context's priority and eventually puts the core
//    in ST mode.
//
//  * kPatched — the paper's patch: the priority-reset code is removed from
//    the handlers, and a /proc/<pid>/hmt_priority file lets userspace set
//    any OS-level priority (1..6) for a process.
//
// The model owns the process table (which pid is pinned to which CPU) and
// is the single authority for the *effective* hardware priority of every
// context; the MPI engine queries it when building chip loads.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "smt/chip.hpp"
#include "smt/priority.hpp"

namespace smtbal::os {

enum class KernelFlavor {
  kVanilla,
  kPatched,
};

class KernelModel {
 public:
  KernelModel(KernelFlavor flavor, const smt::ChipConfig& chip);

  [[nodiscard]] KernelFlavor flavor() const { return flavor_; }

  // --- process management --------------------------------------------------

  /// Creates a process pinned to `cpu` (CPU affinity, as the paper's
  /// experiments do with one MPI rank per context). The context's priority
  /// starts at MEDIUM. Throws if the CPU already hosts a process.
  Pid spawn(CpuId cpu);

  /// Terminates `pid`; its context becomes idle (the idle loop shuts the
  /// thread off, letting the core-mate run in ST mode — paper §VI-A).
  void exit_process(Pid pid);

  /// Re-pins `pid` to the free context `to` (sched_setaffinity + migration).
  /// The process's hardware priority travels with it; the vacated context
  /// goes idle (OFF, like exit_process). Throws InvalidArgument (naming
  /// the CPUs) when the target is out of range or already hosts a process.
  void migrate(Pid pid, CpuId to);

  /// Exchanges the contexts of two pinned processes (a pair of
  /// migrations through a scratch CPU, collapsed). Priorities travel with
  /// the processes. Throws InvalidArgument on an unknown pid or a == b.
  void swap_processes(Pid a, Pid b);

  [[nodiscard]] std::optional<Pid> process_on(CpuId cpu) const;
  [[nodiscard]] CpuId cpu_of(Pid pid) const;

  // --- priority interfaces -------------------------------------------------

  /// The or-nop instruction interface, executed *by the process itself*
  /// at a given privilege level (user code = kUser). Throws
  /// InvalidArgument if the privilege level cannot set the priority
  /// (paper Table I).
  void set_priority_ornop(Pid pid, smt::HwPriority priority,
                          smt::PrivilegeLevel level);

  /// The paper's /proc/<pid>/hmt_priority interface:
  ///   echo N > /proc/<pid>/hmt_priority
  /// Patched kernel only (vanilla throws: file does not exist). Accepts
  /// the OS-settable range 1..6.
  void write_hmt_priority(Pid pid, int priority);

  // --- kernel events --------------------------------------------------------

  /// An interrupt is delivered to `cpu`. The vanilla kernel resets the
  /// context's priority to MEDIUM (it cannot restore the previous value);
  /// the patched kernel preserves it (paper §VI-B change 1).
  void on_interrupt(CpuId cpu);

  // --- effective state -------------------------------------------------------

  /// The effective hardware priority of `cpu`'s context right now. An
  /// idle context (no process) reports OFF: the idle loop has shut the
  /// thread down, putting the core in ST mode.
  [[nodiscard]] smt::HwPriority effective_priority(CpuId cpu) const;

  /// Number of priority resets performed by handler entries (vanilla).
  [[nodiscard]] std::uint64_t priority_resets() const { return priority_resets_; }

 private:
  [[nodiscard]] std::size_t index(CpuId cpu) const;
  void reset_on_kernel_entry(CpuId cpu);

  KernelFlavor flavor_;
  smt::ChipConfig chip_;
  std::vector<smt::HwPriority> cpu_priority_;
  std::vector<std::optional<Pid>> cpu_process_;
  std::unordered_map<Pid, CpuId> process_cpu_;
  Pid::rep_type next_pid_ = 1000;
  std::uint64_t priority_resets_ = 0;
};

}  // namespace smtbal::os
