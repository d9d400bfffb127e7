// The cache-flush channel of paper §5.3.4 (Fig. 5, Table 4).
//
// Flushing the L1-D cache on a domain switch forces write-back of all dirty
// lines, so the switch latency depends on how much the previous domain
// dirtied — execution history leaks through the flush itself. The sender
// modulates the number of dirty cache sets; the receiver watches its cycle
// counter for preemption gaps (offline time) or the length of its own
// uninterrupted run (online time). Requirement 4 closes the channel by
// padding every switch to its worst case.
#ifndef TP_ATTACKS_FLUSH_CHANNEL_HPP_
#define TP_ATTACKS_FLUSH_CHANNEL_HPP_

#include <cstdint>

#include "attacks/channel_experiment.hpp"
#include "attacks/setup_cache.hpp"
#include "core/domain.hpp"

namespace tp::attacks {

// Writes (symbol * sets_per_symbol) cache sets' worth of lines each slice,
// leaving them dirty for the kernel's flush to write back.
class DirtyLineSender final : public SymbolSender {
 public:
  DirtyLineSender(const core::MappedBuffer& buffer, std::size_t lines_per_symbol,
                  std::size_t line_size, int num_symbols, std::uint64_t seed,
                  hw::Cycles slice_gap)
      : SymbolSender(num_symbols, seed, slice_gap),
        base_(buffer.base),
        buffer_bytes_(buffer.bytes),
        lines_per_symbol_(lines_per_symbol),
        line_size_(line_size) {}

 protected:
  hw::Cycles QuiescentCycles(int symbol, std::size_t burst) const override;
  void Transmit(kernel::UserApi& api, int symbol, std::size_t burst) override;

 private:
  hw::VAddr base_;
  std::size_t buffer_bytes_;
  std::size_t lines_per_symbol_;
  std::size_t line_size_;
};

enum class TimingObservable {
  kOffline,  // length of the preemption gap
  kOnline,   // length of the receiver's own uninterrupted run
};

class FlushTimingReceiver final : public SliceReceiver {
 public:
  FlushTimingReceiver(TimingObservable observable, hw::Cycles slice_gap)
      : SliceReceiver(slice_gap), observable_(observable) {}

 protected:
  double MeasureAndPrime(kernel::UserApi& api) override;
  hw::Cycles IdleCycles() const override { return 100; }
  void IdleEnd(hw::Cycles end) override;

 private:
  TimingObservable observable_;
  hw::Cycles slice_start_ = 0;
  hw::Cycles online_end_ = 0;
};

// Everything a flush-channel grid cell varies beyond the Experiment itself
// (scenario, timeslice, padding come in through MakeExperiment).
struct FlushChannelParams {
  std::size_t lines_per_symbol = 0;  // dirty-footprint step; 0 = L1-D lines / 4
  int num_symbols = 4;
  TimingObservable observable = TimingObservable::kOffline;
};

// The seed-free set-up of the flush channel (Fig. 5, Table 4, ablation):
// a sender buffer of twice the L1-D, in `exp`.
ChannelSetup SetUpFlushChannel(Experiment exp);

// One shard on a SetUpFlushChannel set-up: wires DirtyLineSender +
// FlushTimingReceiver into it and collects the paired observations.
mi::Observations RunFlushChannel(ChannelSetup& setup, const FlushChannelParams& params,
                                 std::size_t rounds, std::uint64_t seed);

}  // namespace tp::attacks

#endif  // TP_ATTACKS_FLUSH_CHANNEL_HPP_
