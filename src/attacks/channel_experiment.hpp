// Covert/side-channel experiment harness.
//
// Intra-core channels follow the paper's evaluation protocol (§5.3): two
// security domains time-share a core under a given mitigation scenario; the
// sender encodes a symbol per timeslice, the receiver takes one measurement
// per timeslice, and the paired (symbol, measurement) observations feed the
// MI toolchain. Domains detect their own slice boundaries exactly as the
// paper's receivers do — by watching for cycle-counter jumps.
#ifndef TP_ATTACKS_CHANNEL_EXPERIMENT_HPP_
#define TP_ATTACKS_CHANNEL_EXPERIMENT_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "core/domain.hpp"
#include "core/time_protection.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "mi/observations.hpp"

namespace tp::attacks {

// Detects timeslice boundaries from gaps between successive Step times.
class SliceSync {
 public:
  explicit SliceSync(hw::Cycles gap_threshold) : threshold_(gap_threshold) {}

  // Call once per Step with the step-start time; afterwards call
  // StepEnd(now). Returns true when this step begins a new timeslice.
  bool NewSlice(hw::Cycles now) {
    bool fresh = StartsSlice(now);
    last_gap_ = last_end_ == 0 ? 0 : now - last_end_;
    return fresh;
  }
  void StepEnd(hw::Cycles now) { last_end_ = now; }

  // Whether a step starting at `now` would begin a new timeslice.
  bool StartsSlice(hw::Cycles now) const {
    return last_end_ == 0 || now - last_end_ >= threshold_;
  }
  // Records `steps` back-to-back in-slice steps, the first starting at
  // `start` and the last ending at `end`, as that many NewSlice/StepEnd
  // pairs would: every step after the first starts where the one before
  // it ended.
  void SkipSteps(hw::Cycles start, hw::Cycles end, std::size_t steps) {
    NewSlice(start);
    if (steps > 1) {
      last_gap_ = 0;
    }
    StepEnd(end);
  }

  hw::Cycles last_gap() const { return last_gap_; }

 private:
  hw::Cycles threshold_;
  hw::Cycles last_end_ = 0;
  hw::Cycles last_gap_ = 0;
};

// A sender that transmits one symbol per timeslice, drawn uniformly from
// {0..num_symbols-1} by a seeded generator (the paper's random sequence).
class SymbolSender : public kernel::UserProgram {
 public:
  SymbolSender(int num_symbols, std::uint64_t seed, hw::Cycles slice_gap)
      : sync_(slice_gap), num_symbols_(num_symbols), rng_(seed), dist_(0, num_symbols - 1) {}

  void Step(kernel::UserApi& api) final;
  std::size_t FastForward(kernel::UserApi& api, hw::Cycles bound) final;

  const std::vector<int>& symbols_sent() const { return symbols_; }

 protected:
  // What a sender's quiescent step burns: past its last burst of a slice,
  // or on an idle symbol.
  static constexpr hw::Cycles kIdleCycles = 400;

  int num_symbols() const { return num_symbols_; }

  // The cycles of step `burst` of `symbol` when that step is quiescent
  // (only burns time), else 0. Once nonzero it must stay the same for
  // every later burst of the symbol. Step runs a quiescent step as
  // exactly this, so it is the only definition of the sender's idling.
  virtual hw::Cycles QuiescentCycles(int symbol, std::size_t burst) const = 0;
  // Transmit a short burst encoding `symbol`; called for every step of the
  // slice that is not quiescent, with `burst` counting up from 0 at the
  // slice start.
  virtual void Transmit(kernel::UserApi& api, int symbol, std::size_t burst) = 0;

 private:
  SliceSync sync_;
  int num_symbols_;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<int> dist_;
  std::vector<int> symbols_;
  int current_symbol_ = -1;
  std::size_t burst_ = 0;
};

// A receiver producing one continuous measurement per timeslice.
class SliceReceiver : public kernel::UserProgram {
 public:
  explicit SliceReceiver(hw::Cycles slice_gap) : sync_(slice_gap) {}

  void Step(kernel::UserApi& api) final;
  std::size_t FastForward(kernel::UserApi& api, hw::Cycles bound) final;

  const std::vector<double>& samples() const { return samples_; }

 protected:
  // Called at each slice start after the first; returns the measurement for
  // the *previous* sender slice (typically: probe, then re-prime).
  virtual double MeasureAndPrime(kernel::UserApi& api) = 0;

  // Every in-slice step after the boundary one idles: it burns
  // IdleCycles() and reports its end to IdleEnd. It is quiescent unless
  // IdleQuiescent(now) is false for its start time `now`, in which case
  // IdleObserve() records what the step saw before it idles. Step and
  // FastForward both go through these, so the idle step is defined once.
  virtual hw::Cycles IdleCycles() const { return 200; }
  virtual bool IdleQuiescent(hw::Cycles /*now*/) const { return true; }
  virtual void IdleObserve() {}
  virtual void IdleEnd(hw::Cycles /*end*/) {}

  SliceSync& sync() { return sync_; }

 private:
  SliceSync sync_;
  std::vector<double> samples_;
  bool primed_ = false;
};

// A two-domain experiment under a mitigation scenario.
struct Experiment {
  hw::MachineConfig machine_config;
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<kernel::Kernel> kernel;
  std::unique_ptr<core::DomainManager> manager;
  core::Domain* sender_domain = nullptr;    // domain 1
  core::Domain* receiver_domain = nullptr;  // domain 2
  double timeslice_ms = 1.0;

  hw::Cycles SliceGapThreshold() const {
    return machine->MicrosToCycles(timeslice_ms * 1000.0) / 8;
  }

  // Deep copy of the whole simulated system: hw::Machine::Clone,
  // kernel::Kernel::Clone and core::DomainManager::Clone, with the domain
  // pointers naming the copy's domains. Running the copy gives exactly
  // what running this experiment would; neither changes the other.
  Experiment Clone() const;
  // Keeps this experiment's simulated work out of the process-wide
  // SimTally and StepTally: for a held set-up snapshot, whose clones each
  // tally the set-up as a fresh build would.
  void DetachTally();
};

struct ExperimentOptions {
  double timeslice_ms = 1.0;
  bool same_core = true;  // false: sender on core 0, receiver on core 1
  // Each domain's share of an equal colour split (<1 models the
  // reduced-allocation sweeps beyond the paper's 50% default; only
  // meaningful for clone-capable kernels).
  double colour_fraction = 1.0;
  // Extra kernel-config override applied after the scenario preset (e.g.
  // disabling padding for the Table 4 "no pad" row).
  bool disable_padding = false;
  std::vector<std::size_t> sender_device_timers;
  // Arbitrary kernel-config mutation applied last; used by the ablation
  // bench to remove one time-protection mechanism at a time.
  std::function<void(kernel::KernelConfig&)> config_hook;
};

Experiment MakeExperiment(const hw::MachineConfig& machine_config, core::Scenario scenario,
                          const ExperimentOptions& options = {});

// Process-global kernel-config override applied after every per-call
// config_hook in MakeExperiment; pass nullptr to clear. For tests that must
// force one kernel configuration (e.g. full flush) through a whole scenario
// sweep they cannot otherwise parameterise. Not thread-safe against
// concurrent MakeExperiment — set it before fanning out.
void SetGlobalConfigOverride(std::function<void(kernel::KernelConfig&)> hook);
bool GlobalConfigOverrideSet();

// Runs the kernel until the receiver has `rounds` samples (or a generous
// cycle budget runs out) and pairs them with the sender's symbols.
// `sample_lag` shifts the pairing: prime&probe receivers observe sender
// slice i at the start of their slice i (lag 0); the interrupt spy's
// observation of slice i is only reported at the start of slice i+1
// (lag 1).
mi::Observations CollectObservations(Experiment& exp, const SymbolSender& sender,
                                     const SliceReceiver& receiver, std::size_t rounds,
                                     std::size_t sample_lag = 0);

}  // namespace tp::attacks

#endif  // TP_ATTACKS_CHANNEL_EXPERIMENT_HPP_
