#include "attacks/flush_channel.hpp"

namespace tp::attacks {

namespace {
constexpr std::size_t kMaxBursts = 16;
}

hw::Cycles DirtyLineSender::QuiescentCycles(int symbol, std::size_t burst) const {
  return burst >= kMaxBursts || symbol == 0 || lines_per_symbol_ == 0 ? kIdleCycles : 0;
}

void DirtyLineSender::Transmit(kernel::UserApi& api, int symbol, std::size_t /*burst*/) {
  std::size_t lines = static_cast<std::size_t>(symbol) * lines_per_symbol_;
  for (std::size_t i = 0; i < lines; ++i) {
    api.Write(base_ + (i * line_size_) % buffer_bytes_);
  }
}

double FlushTimingReceiver::MeasureAndPrime(kernel::UserApi& api) {
  // Called at the first step of a new slice: sync().last_gap() is the
  // offline time just observed; online_end_ - slice_start_ was the previous
  // slice's online time.
  double sample = 0.0;
  if (observable_ == TimingObservable::kOffline) {
    sample = static_cast<double>(sync().last_gap());
  } else {
    sample = static_cast<double>(online_end_ - slice_start_);
  }
  slice_start_ = api.Now();
  online_end_ = slice_start_;
  return sample;
}

void FlushTimingReceiver::IdleEnd(hw::Cycles end) { online_end_ = end; }

ChannelSetup SetUpFlushChannel(Experiment exp) {
  ChannelSetup setup{std::move(exp)};
  setup.sender_buffer = setup.exp.manager->AllocBuffer(
      *setup.exp.sender_domain, 2 * setup.exp.machine_config.l1d.size_bytes);
  return setup;
}

mi::Observations RunFlushChannel(ChannelSetup& setup, const FlushChannelParams& params,
                                 std::size_t rounds, std::uint64_t seed) {
  Experiment& exp = setup.exp;
  const hw::CacheGeometry& l1d = exp.machine_config.l1d;
  const hw::Cycles gap = exp.SliceGapThreshold();
  std::size_t lines =
      params.lines_per_symbol != 0 ? params.lines_per_symbol : l1d.TotalLines() / 4;
  DirtyLineSender sender(setup.sender_buffer, lines, l1d.line_size, params.num_symbols, seed, gap);
  FlushTimingReceiver receiver(params.observable, gap);
  exp.manager->StartThread(*exp.sender_domain, &sender, 120, 0);
  exp.manager->StartThread(*exp.receiver_domain, &receiver, 120, 0);
  return CollectObservations(exp, sender, receiver, rounds);
}

}  // namespace tp::attacks
