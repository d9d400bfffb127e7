// The interrupt covert channel of paper §5.3.5 (Fig. 6).
//
// The Trojan programs a one-shot device timer to fire a few milliseconds
// into the spy's next timeslice; the spy observes where its online time is
// interrupted by the kernel's IRQ handling. Requirement 5 (interrupt
// partitioning via Kernel_SetInt) keeps the Trojan's IRQ masked while the
// spy's domain runs, leaving the spy with an uninterrupted slice.
#ifndef TP_ATTACKS_INTERRUPT_CHANNEL_HPP_
#define TP_ATTACKS_INTERRUPT_CHANNEL_HPP_

#include <cstdint>

#include "attacks/channel_experiment.hpp"
#include "attacks/setup_cache.hpp"

namespace tp::attacks {

class TimerTrojan final : public SymbolSender {
 public:
  // Fires the timer (base_delay + symbol * step_delay) after its slice
  // start; paper values: 13 ms + symbol * 1 ms with a 10 ms tick.
  TimerTrojan(kernel::CapIdx timer_cap, hw::Cycles base_delay, hw::Cycles step_delay,
              int num_symbols, std::uint64_t seed, hw::Cycles slice_gap)
      : SymbolSender(num_symbols, seed, slice_gap),
        timer_cap_(timer_cap),
        base_delay_(base_delay),
        step_delay_(step_delay) {}

 protected:
  hw::Cycles QuiescentCycles(int symbol, std::size_t burst) const override;
  void Transmit(kernel::UserApi& api, int symbol, std::size_t burst) override;

 private:
  kernel::CapIdx timer_cap_;
  hw::Cycles base_delay_;
  hw::Cycles step_delay_;
};

// Observes the offset of the first intra-slice interruption of its online
// time (the full slice length if uninterrupted).
class InterruptSpy final : public SliceReceiver {
 public:
  // `irq_gap` distinguishes an IRQ-handling gap from scheduler noise;
  // anything between irq_gap and the slice gap counts as an interrupt.
  InterruptSpy(hw::Cycles irq_gap, hw::Cycles slice_gap)
      : SliceReceiver(slice_gap), irq_gap_(irq_gap), slice_gap_(slice_gap) {}

 protected:
  double MeasureAndPrime(kernel::UserApi& api) override;
  hw::Cycles IdleCycles() const override { return 1000; }
  bool IdleQuiescent(hw::Cycles now) const override;
  void IdleObserve() override;
  void IdleEnd(hw::Cycles end) override;

 private:
  hw::Cycles irq_gap_;
  hw::Cycles slice_gap_;
  hw::Cycles slice_start_ = 0;
  hw::Cycles prev_end_ = 0;
  double first_interrupt_offset_ = -1.0;
};

// Timer offsets are expressed in units of the timeslice so one parameter
// set scales with the tick axis of a grid (the paper's 13–17 ms at a 10 ms
// tick is 1.3–1.7 ticks).
struct InterruptChannelParams {
  double base_delay_ticks = 1.3;
  double step_delay_ticks = 0.1;
  int num_symbols = 5;
  hw::Cycles irq_gap = 300;
  std::size_t device_timer = 0;  // index into boot_info().device_timers
};

// The seed-free set-up of the interrupt channel (Fig. 6, ablation): the
// Trojan's cap to `params.device_timer`, granted in `exp`, which must have
// been built with `sender_device_timers` covering it.
ChannelSetup SetUpInterruptChannel(Experiment exp, const InterruptChannelParams& params = {});

// One shard on a SetUpInterruptChannel set-up: wires TimerTrojan +
// InterruptSpy into it and collects the paired observations (sample lag 1
// — the spy reports slice i at the start of slice i+1).
mi::Observations RunInterruptChannel(ChannelSetup& setup, const InterruptChannelParams& params,
                                     std::size_t rounds, std::uint64_t seed);

}  // namespace tp::attacks

#endif  // TP_ATTACKS_INTERRUPT_CHANNEL_HPP_
