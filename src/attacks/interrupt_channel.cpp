#include "attacks/interrupt_channel.hpp"

namespace tp::attacks {

namespace {
constexpr hw::Cycles kTrojanSleepCycles = 1000;
}

// Every step after the first sleeps for the rest of the slice (the paper's
// Trojan idles after programming the timer).
hw::Cycles TimerTrojan::QuiescentCycles(int /*symbol*/, std::size_t burst) const {
  return burst > 0 ? kTrojanSleepCycles : 0;
}

void TimerTrojan::Transmit(kernel::UserApi& api, int symbol, std::size_t /*burst*/) {
  api.SetTimer(timer_cap_, base_delay_ + static_cast<hw::Cycles>(symbol) * step_delay_);
  api.Compute(kTrojanSleepCycles);
}

double InterruptSpy::MeasureAndPrime(kernel::UserApi& api) {
  double sample = first_interrupt_offset_ >= 0.0
                      ? first_interrupt_offset_
                      : static_cast<double>(prev_end_ - slice_start_);
  slice_start_ = api.Now();
  prev_end_ = slice_start_;
  first_interrupt_offset_ = -1.0;
  return sample;
}

// The step is quiescent unless it is the first to see an IRQ-handling gap:
// the kernel handled an interrupt in the middle of our online time.
bool InterruptSpy::IdleQuiescent(hw::Cycles now) const {
  const hw::Cycles gap = now - prev_end_;
  return !(first_interrupt_offset_ < 0.0 && gap >= irq_gap_ && gap < slice_gap_);
}

void InterruptSpy::IdleObserve() {
  first_interrupt_offset_ = static_cast<double>(prev_end_ - slice_start_);
}

void InterruptSpy::IdleEnd(hw::Cycles end) { prev_end_ = end; }

ChannelSetup SetUpInterruptChannel(Experiment exp, const InterruptChannelParams& params) {
  ChannelSetup setup{std::move(exp)};
  setup.sender_cap = setup.exp.manager->GrantCap(
      *setup.exp.sender_domain,
      setup.exp.kernel->boot_info().device_timers[params.device_timer]);
  return setup;
}

mi::Observations RunInterruptChannel(ChannelSetup& setup, const InterruptChannelParams& params,
                                     std::size_t rounds, std::uint64_t seed) {
  Experiment& exp = setup.exp;
  const hw::Machine& m = *exp.machine;
  const hw::Cycles gap = exp.SliceGapThreshold();
  const double tick_us = exp.timeslice_ms * 1000.0;
  TimerTrojan trojan(setup.sender_cap, m.MicrosToCycles(params.base_delay_ticks * tick_us),
                     m.MicrosToCycles(params.step_delay_ticks * tick_us), params.num_symbols,
                     seed, gap);
  InterruptSpy spy(params.irq_gap, gap);
  exp.manager->StartThread(*exp.sender_domain, &trojan, 120, 0);
  exp.manager->StartThread(*exp.receiver_domain, &spy, 120, 0);
  return CollectObservations(exp, trojan, spy, rounds, /*sample_lag=*/1);
}

}  // namespace tp::attacks
