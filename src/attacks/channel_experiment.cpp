#include "attacks/channel_experiment.hpp"

#include <cassert>
#include <cstdlib>

#include "core/padding.hpp"

namespace tp::attacks {

namespace {
std::function<void(kernel::KernelConfig&)> g_config_override;
}  // namespace

void SetGlobalConfigOverride(std::function<void(kernel::KernelConfig&)> hook) {
  g_config_override = std::move(hook);
}

bool GlobalConfigOverrideSet() { return static_cast<bool>(g_config_override); }

Experiment Experiment::Clone() const {
  Experiment copy;
  copy.machine_config = machine_config;
  copy.timeslice_ms = timeslice_ms;
  copy.machine = machine->Clone();
  kernel::CSpaceCopies cspaces;
  copy.kernel = kernel->Clone(*copy.machine, cspaces);
  copy.manager = manager->Clone(*copy.kernel, cspaces);
  const auto& from = manager->domains();
  const auto& to = copy.manager->domains();
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i].get() == sender_domain) {
      copy.sender_domain = to[i].get();
    }
    if (from[i].get() == receiver_domain) {
      copy.receiver_domain = to[i].get();
    }
  }
  return copy;
}

void Experiment::DetachTally() {
  machine->DetachTally();
  kernel->DetachTally();
}

void SymbolSender::Step(kernel::UserApi& api) {
  hw::Cycles now = api.Now();
  if (sync_.NewSlice(now) || current_symbol_ < 0) {
    current_symbol_ = dist_(rng_);
    symbols_.push_back(current_symbol_);
    burst_ = 0;
  }
  const std::size_t burst = burst_++;
  if (const hw::Cycles idle = QuiescentCycles(current_symbol_, burst); idle != 0) {
    api.Compute(idle);
  } else {
    Transmit(api, current_symbol_, burst);
  }
  sync_.StepEnd(api.Now());
}

std::size_t SymbolSender::FastForward(kernel::UserApi& api, hw::Cycles bound) {
  const hw::Cycles now = api.Now();
  if (current_symbol_ < 0 || sync_.StartsSlice(now)) {
    return 0;
  }
  const hw::Cycles idle = QuiescentCycles(current_symbol_, burst_);
  const std::size_t steps = kernel::QuiescentSteps(now, bound, idle);
  if (steps == 0) {
    return 0;
  }
  assert(QuiescentCycles(current_symbol_, burst_ + steps - 1) == idle);
  api.Compute(steps * idle);
  burst_ += steps;
  sync_.SkipSteps(now, api.Now(), steps);
  return steps;
}

void SliceReceiver::Step(kernel::UserApi& api) {
  hw::Cycles now = api.Now();
  if (sync_.NewSlice(now)) {
    if (primed_) {
      samples_.push_back(MeasureAndPrime(api));
    } else {
      MeasureAndPrime(api);  // warm-up: prime without recording
      primed_ = true;
    }
  } else {
    if (!IdleQuiescent(now)) {
      IdleObserve();
    }
    api.Compute(IdleCycles());
    IdleEnd(api.Now());
  }
  sync_.StepEnd(api.Now());
}

std::size_t SliceReceiver::FastForward(kernel::UserApi& api, hw::Cycles bound) {
  const hw::Cycles now = api.Now();
  if (sync_.StartsSlice(now) || !IdleQuiescent(now)) {
    return 0;
  }
  const std::size_t steps = kernel::QuiescentSteps(now, bound, IdleCycles());
  if (steps == 0) {
    return 0;
  }
  api.Compute(steps * IdleCycles());
  IdleEnd(api.Now());
  assert(IdleQuiescent(api.Now()));
  sync_.SkipSteps(now, api.Now(), steps);
  return steps;
}

Experiment MakeExperiment(const hw::MachineConfig& machine_config, core::Scenario scenario,
                          const ExperimentOptions& options) {
  Experiment exp;
  exp.machine_config = machine_config;
  exp.timeslice_ms = options.timeslice_ms;
  exp.machine = std::make_unique<hw::Machine>(machine_config);

  kernel::KernelConfig kc =
      core::MakeKernelConfig(scenario, *exp.machine, options.timeslice_ms);
  if (options.disable_padding) {
    kc.pad_switches = false;
  }
  if (options.config_hook) {
    options.config_hook(kc);
  }
  if (g_config_override) {
    g_config_override(kc);
  }
  exp.kernel = std::make_unique<kernel::Kernel>(*exp.machine, kc);
  exp.manager = std::make_unique<core::DomainManager>(*exp.kernel);

  // 50% of colours per domain (the paper's default) scaled by
  // colour_fraction, only meaningful for clone-capable kernels.
  std::vector<std::set<std::size_t>> colours(2);
  if (kc.clone_support) {
    colours = core::SplitColours(machine_config, 2, options.colour_fraction);
  }
  // Pad to the simulator's worst-case switch cost (a safe pad needs a WCET
  // analysis of *this* platform, §4.3; the paper's measured 58.8/62.5 µs
  // play the same role on the real hardware).
  hw::Cycles pad = kc.pad_switches
                       ? core::WorstCaseSwitchCycles(*exp.machine, kc.flush_mode)
                       : 0;

  core::DomainOptions sender_opts;
  sender_opts.id = 1;
  sender_opts.colours = colours[0];
  sender_opts.pad_cycles = pad;
  sender_opts.device_timers = options.sender_device_timers;
  exp.sender_domain = &exp.manager->CreateDomain(sender_opts);

  core::DomainOptions receiver_opts;
  receiver_opts.id = 2;
  receiver_opts.colours = colours[1];
  receiver_opts.pad_cycles = pad;
  exp.receiver_domain = &exp.manager->CreateDomain(receiver_opts);

  if (options.same_core) {
    exp.kernel->SetDomainSchedule(0, {1, 2});
  } else {
    exp.kernel->SetDomainSchedule(0, {1});
    if (exp.machine->num_cores() > 1) {
      exp.kernel->SetDomainSchedule(1, {2});
    }
  }
  return exp;
}

mi::Observations CollectObservations(Experiment& exp, const SymbolSender& sender,
                                     const SliceReceiver& receiver, std::size_t rounds,
                                     std::size_t sample_lag) {
  hw::Cycles slice = exp.machine->MicrosToCycles(exp.timeslice_ms * 1000.0);
  // Generous budget: two slices per round plus warm-up slack.
  std::size_t max_chunks = 4 * rounds + 64;
  for (std::size_t i = 0; i < max_chunks && receiver.samples().size() < rounds + sample_lag;
       ++i) {
    exp.kernel->RunFor(2 * slice);
  }

  mi::Observations obs;
  const std::vector<int>& symbols = sender.symbols_sent();
  const std::vector<double>& samples = receiver.samples();
  std::size_t n = std::min(symbols.size(), samples.size() - std::min(samples.size(), sample_lag));
  // Skip the first pair: it straddles the partially-warm start.
  for (std::size_t i = 1; i < n; ++i) {
    obs.Add(symbols[i], samples[i + sample_lag]);
  }
  return obs;
}

}  // namespace tp::attacks
