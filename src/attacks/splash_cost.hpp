// The Splash-2 cost experiments of paper §5.4.4: Figure 7 (a benchmark
// solo on a coloured or cloned kernel) and Table 8 (time-sharing the core
// with an idle domain under full time protection).
//
// Each is split into a set-up — machine, kernel and domains, with the
// working domain's buffer mapped as its newest allocation — and a run of
// one benchmark over that buffer. The benchmarks of one configuration
// differ only in the buffer's size, so one set-up grown size by size
// serves them all (RunBufferLadder).
#ifndef TP_ATTACKS_SPLASH_COST_HPP_
#define TP_ATTACKS_SPLASH_COST_HPP_

#include <cstdint>

#include "attacks/channel_experiment.hpp"
#include "core/domain.hpp"
#include "core/time_protection.hpp"
#include "hw/machine.hpp"
#include "workloads/splash.hpp"

namespace tp::attacks {

// A Splash set-up: `exp.sender_domain` is the working domain (domain 1)
// and `buffer` its newest allocation, the benchmark's working set.
struct SplashSetup {
  Experiment exp;
  core::MappedBuffer buffer;

  SplashSetup Clone() const { return {exp.Clone(), buffer}; }
  // Grows the working set to `bytes` (DomainManager::GrowBuffer).
  void Grow(std::size_t bytes) { exp.manager->GrowBuffer(*exp.sender_domain, buffer, bytes); }
};

// Figure 7's set-up: one domain with `colour_fraction` of the colours
// (all of them at 1.0) on a kernel with or without clone support, and an
// empty buffer.
SplashSetup SetUpSplashSolo(const hw::MachineConfig& config, bool clone_support,
                            double colour_fraction);
// Cycles to complete `target_accesses` of `kind` after a warm-up over an
// eighth as many, solo on the core. The buffer must hold the kind's
// working set (workloads::WorkingSetBytes).
double RunSplashSolo(SplashSetup& setup, workloads::SplashKind kind,
                     std::uint64_t target_accesses);

// Table 8's set-up: the working domain and an idle one (domain 2)
// time-sharing core 0 under `scenario`, each with `colour_fraction` of an
// equal colour split when the kernel is clone-capable, switch padding on
// or off, and an empty buffer.
SplashSetup SetUpSplashTimeShared(const hw::MachineConfig& config, core::Scenario scenario,
                                  bool pad, double colour_fraction);
// Accesses of `kind` completed in `slices` timeslices of the shared core,
// after a four-slice warm-up. The buffer must hold the kind's working set.
std::uint64_t RunSplashTimeShared(SplashSetup& setup, workloads::SplashKind kind,
                                  std::size_t slices);

}  // namespace tp::attacks

#endif  // TP_ATTACKS_SPLASH_COST_HPP_
