#include "attacks/splash_cost.hpp"

#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/colour.hpp"
#include "core/padding.hpp"
#include "kernel/kernel.hpp"

namespace tp::attacks {

namespace {

constexpr std::uint64_t kSplashSeed = 0x5B1A5;

// An experiment on `config` with only its machine built.
Experiment WithMachine(const hw::MachineConfig& config, double timeslice_ms) {
  Experiment exp;
  exp.machine_config = config;
  exp.timeslice_ms = timeslice_ms;
  exp.machine = std::make_unique<hw::Machine>(config);
  return exp;
}

// Boots the kernel on `kc` and the domain manager.
void Boot(Experiment& exp, const kernel::KernelConfig& kc) {
  exp.kernel = std::make_unique<kernel::Kernel>(*exp.machine, kc);
  exp.manager = std::make_unique<core::DomainManager>(*exp.kernel);
}

SplashSetup WithEmptyBuffer(Experiment exp) {
  core::MappedBuffer buffer = exp.manager->AllocBuffer(*exp.sender_domain, 0);
  return SplashSetup{std::move(exp), std::move(buffer)};
}

void CheckWorkingSet(const SplashSetup& setup, workloads::SplashKind kind) {
  if (setup.buffer.bytes != workloads::WorkingSetBytes(kind, setup.exp.machine_config)) {
    throw std::logic_error("Splash set-up: the buffer is not the benchmark's working set");
  }
}

}  // namespace

SplashSetup SetUpSplashSolo(const hw::MachineConfig& config, bool clone_support,
                            double colour_fraction) {
  Experiment exp = WithMachine(config, /*timeslice_ms=*/10.0);
  kernel::KernelConfig kc;
  kc.clone_support = clone_support;
  kc.timeslice_cycles = exp.machine->MicrosToCycles(10'000.0);
  Boot(exp, kc);
  core::DomainOptions opts;
  opts.id = 1;
  if (colour_fraction < 1.0) {
    opts.colours = core::SplitColours(config, 1, colour_fraction)[0];
  }
  exp.sender_domain = &exp.manager->CreateDomain(opts);
  return WithEmptyBuffer(std::move(exp));
}

double RunSplashSolo(SplashSetup& setup, workloads::SplashKind kind,
                     std::uint64_t target_accesses) {
  CheckWorkingSet(setup, kind);
  Experiment& exp = setup.exp;
  workloads::SplashProgram prog(kind, setup.buffer, kSplashSeed);
  exp.manager->StartThread(*exp.sender_domain, &prog, 100, 0);
  exp.kernel->SetDomainSchedule(0, {1});
  exp.kernel->KickSchedule(0);

  // Warm-up pass over a fraction of the working set.
  while (prog.accesses() < target_accesses / 8) {
    exp.kernel->StepCore(0);
  }
  const hw::Cycles t0 = exp.machine->core(0).now();
  const std::uint64_t a0 = prog.accesses();
  while (prog.accesses() - a0 < target_accesses) {
    exp.kernel->StepCore(0);
  }
  return static_cast<double>(exp.machine->core(0).now() - t0);
}

SplashSetup SetUpSplashTimeShared(const hw::MachineConfig& config, core::Scenario scenario,
                                  bool pad, double colour_fraction) {
  Experiment exp = WithMachine(config, /*timeslice_ms=*/1.0);
  kernel::KernelConfig kc = core::MakeKernelConfig(scenario, *exp.machine, exp.timeslice_ms);
  kc.pad_switches = pad;
  Boot(exp, kc);
  std::vector<std::set<std::size_t>> colours(2);
  if (kc.clone_support) {
    colours = core::SplitColours(config, 2, colour_fraction);
  }
  const hw::Cycles pad_cycles =
      pad ? core::WorstCaseSwitchCycles(*exp.machine, kc.flush_mode) : 0;
  exp.sender_domain =
      &exp.manager->CreateDomain({.id = 1, .colours = colours[0], .pad_cycles = pad_cycles});
  // Domain 2 stays idle (no threads): its kernel's idle thread runs.
  exp.receiver_domain =
      &exp.manager->CreateDomain({.id = 2, .colours = colours[1], .pad_cycles = pad_cycles});
  return WithEmptyBuffer(std::move(exp));
}

std::uint64_t RunSplashTimeShared(SplashSetup& setup, workloads::SplashKind kind,
                                  std::size_t slices) {
  CheckWorkingSet(setup, kind);
  Experiment& exp = setup.exp;
  workloads::SplashProgram prog(kind, setup.buffer, kSplashSeed);
  exp.manager->StartThread(*exp.sender_domain, &prog, 100, 0);
  exp.kernel->SetDomainSchedule(0, {1, 2});

  const hw::Cycles slice = exp.machine->MicrosToCycles(exp.timeslice_ms * 1000.0);
  exp.kernel->RunFor(4 * slice);  // warm up
  const std::uint64_t a0 = prog.accesses();
  exp.kernel->RunFor(slices * slice);
  return prog.accesses() - a0;
}

}  // namespace tp::attacks
