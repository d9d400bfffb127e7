// The shared-kernel-image covert channel of paper §5.3.1 (Fig. 3).
//
// The sender encodes symbols from I = {0,1,2,3} as system calls — Signal,
// TCB_SetPriority, Poll, or idling — whose kernel text/data footprints
// differ. The receiver, time-sharing the core, prime&probes the LLC sets
// the kernel's syscall text occupies and counts LLC misses. With a shared
// kernel the miss count is correlated with the syscall; with cloned,
// coloured kernels it is not.
#ifndef TP_ATTACKS_KERNEL_CHANNEL_HPP_
#define TP_ATTACKS_KERNEL_CHANNEL_HPP_

#include <cstdint>

#include "attacks/channel_experiment.hpp"
#include "attacks/prime_probe.hpp"
#include "attacks/setup_cache.hpp"
#include "mi/observations.hpp"

namespace tp::attacks {

class KernelChannelSender final : public SymbolSender {
 public:
  // `notification` and `tcb` are capability indices in the sender domain's
  // cspace (the notification and the sender's own TCB).
  KernelChannelSender(kernel::CapIdx notification, kernel::CapIdx tcb, std::uint64_t seed,
                      hw::Cycles slice_gap)
      : SymbolSender(4, seed, slice_gap), notification_(notification), tcb_(tcb) {}

  // The sender's own TCB capability only exists after the thread is
  // created; the harness injects it here.
  void SetCaps(kernel::CapIdx notification, kernel::CapIdx tcb) {
    notification_ = notification;
    tcb_ = tcb;
  }

 protected:
  hw::Cycles QuiescentCycles(int symbol, std::size_t burst) const override;
  void Transmit(kernel::UserApi& api, int symbol, std::size_t burst) override;

 private:
  kernel::CapIdx notification_;
  kernel::CapIdx tcb_;
};

class KernelProbeReceiver final : public SliceReceiver {
 public:
  KernelProbeReceiver(EvictionSet eviction_set, hw::Cycles slice_gap)
      : SliceReceiver(slice_gap), eviction_set_(std::move(eviction_set)) {}

 protected:
  // Output symbol: LLC misses while traversing the probe buffer (§5.3.1
  // uses performance counters for exactly this).
  double MeasureAndPrime(kernel::UserApi& api) override;

 private:
  EvictionSet eviction_set_;
};

// The seed-free set-up: the receiver's probe buffer mapped and its
// eviction set over the *boot* kernel's syscall text windows (entry +
// Signal + SetPriority + Poll), in `exp`.
ChannelSetup SetUpKernelChannel(Experiment exp);

// The seeded run: the sender and its kernel objects, both threads, and
// `rounds` paired observations.
mi::Observations RunKernelChannel(ChannelSetup& setup, std::size_t rounds, std::uint64_t seed);

}  // namespace tp::attacks

#endif  // TP_ATTACKS_KERNEL_CHANNEL_HPP_
