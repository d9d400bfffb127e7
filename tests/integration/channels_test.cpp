// End-to-end channel integration tests: each attack of paper §5.3 must
// exhibit a leak on the unmitigated system and no evidence of one under
// time protection. These are scaled-down versions of the bench binaries
// (fewer samples; the MI magnitudes are smaller but presence/absence of the
// channel is what the leakage test decides).
#include <gtest/gtest.h>

#include "attacks/channel_experiment.hpp"
#include "attacks/flush_channel.hpp"
#include "attacks/interrupt_channel.hpp"
#include "attacks/kernel_channel.hpp"
#include "attacks/llc_side_channel.hpp"
#include "attacks/prime_probe.hpp"
#include "mi/leakage_test.hpp"
#include "support/test_support.hpp"

namespace tp::attacks {
namespace {

using test::Analyse;

constexpr std::size_t kRounds = 300;
constexpr std::uint64_t kSeed = 0xC0FFEE;

TEST(KernelChannel, RawSharedKernelLeaksOnX86) {
  ChannelSetup setup = SetUpKernelChannel(MakeExperiment(
      hw::MachineConfig::Haswell(1), core::Scenario::kRaw, {.timeslice_ms = 0.25}));
  mi::Observations obs = RunKernelChannel(setup, kRounds, kSeed);
  ASSERT_GE(obs.size(), kRounds / 2);
  mi::LeakageResult r = Analyse(obs);
  EXPECT_TRUE(r.leak) << "M=" << r.MilliBits() << "mb M0=" << r.M0MilliBits() << "mb";
  EXPECT_GT(r.mi_bits, 0.05);
}

TEST(KernelChannel, ProtectedClonedKernelClosesOnX86) {
  ChannelSetup setup = SetUpKernelChannel(MakeExperiment(
      hw::MachineConfig::Haswell(1), core::Scenario::kProtected, {.timeslice_ms = 0.25}));
  mi::Observations obs = RunKernelChannel(setup, kRounds, kSeed);
  ASSERT_GE(obs.size(), kRounds / 2);
  mi::LeakageResult r = Analyse(obs);
  EXPECT_FALSE(r.leak) << "M=" << r.MilliBits() << "mb M0=" << r.M0MilliBits() << "mb";
}

TEST(KernelChannel, RawLeaksOnArm) {
  ChannelSetup setup = SetUpKernelChannel(MakeExperiment(
      hw::MachineConfig::Sabre(1), core::Scenario::kRaw, {.timeslice_ms = 0.5}));
  mi::Observations obs = RunKernelChannel(setup, kRounds, kSeed);
  mi::LeakageResult r = Analyse(obs);
  EXPECT_TRUE(r.leak) << "M=" << r.MilliBits() << "mb M0=" << r.M0MilliBits() << "mb";
}

mi::Observations RunL1dChannel(core::Scenario scenario, const hw::MachineConfig& mc) {
  Experiment exp = MakeExperiment(mc, scenario, {.timeslice_ms = 0.25});
  const hw::CacheGeometry& l1 = mc.l1d;
  hw::Cycles gap = exp.SliceGapThreshold();

  core::MappedBuffer rbuf =
      exp.manager->AllocBuffer(*exp.receiver_domain, 2 * l1.size_bytes);
  std::set<std::size_t> sets;
  for (std::size_t s = 0; s < l1.SetsPerSlice(); ++s) {
    sets.insert(s);
  }
  hw::SetAssociativeCache probe_model("m", l1, hw::Indexing::kVirtual);
  EvictionSet es =
      EvictionSet::Build(probe_model, rbuf, sets, l1.associativity, /*by_vaddr=*/true);
  CacheProbeReceiver receiver(std::move(es), /*instruction_side=*/false, gap);

  core::MappedBuffer sbuf = exp.manager->AllocBuffer(*exp.sender_domain, 2 * l1.size_bytes);
  CacheSetSender sender(sbuf, /*lines_per_symbol=*/l1.SetsPerSlice() / 4, l1.line_size,
                        /*writes=*/true, /*instruction_side=*/false, 4, kSeed, gap);

  exp.manager->StartThread(*exp.sender_domain, &sender, 120, 0);
  exp.manager->StartThread(*exp.receiver_domain, &receiver, 120, 0);
  return CollectObservations(exp, sender, receiver, kRounds);
}

TEST(L1dChannel, RawLeaksProtectedCloses) {
  mi::LeakageResult raw = Analyse(RunL1dChannel(core::Scenario::kRaw,
                                                hw::MachineConfig::Haswell(1)));
  EXPECT_TRUE(raw.leak) << "raw M=" << raw.MilliBits() << "mb";

  mi::LeakageResult prot = Analyse(RunL1dChannel(core::Scenario::kProtected,
                                                 hw::MachineConfig::Haswell(1)));
  EXPECT_FALSE(prot.leak) << "protected M=" << prot.MilliBits()
                          << "mb M0=" << prot.M0MilliBits() << "mb";
  EXPECT_GT(raw.mi_bits, prot.mi_bits);
}

TEST(L1dChannel, FullFlushClosesToo) {
  mi::LeakageResult full = Analyse(RunL1dChannel(core::Scenario::kFullFlush,
                                                 hw::MachineConfig::Haswell(1)));
  EXPECT_FALSE(full.leak) << "full-flush M=" << full.MilliBits() << "mb";
}

mi::Observations RunFlushChannel(const hw::MachineConfig& mc, bool padded) {
  ExperimentOptions opt;
  opt.timeslice_ms = 0.25;
  opt.disable_padding = !padded;
  Experiment exp = MakeExperiment(mc, core::Scenario::kProtected, opt);
  hw::Cycles gap = exp.SliceGapThreshold();

  core::MappedBuffer sbuf =
      exp.manager->AllocBuffer(*exp.sender_domain, 2 * mc.l1d.size_bytes);
  std::size_t lines_per_symbol = mc.l1d.TotalLines() / 4;
  DirtyLineSender sender(sbuf, lines_per_symbol, mc.l1d.line_size, 4, kSeed, gap);
  FlushTimingReceiver receiver(TimingObservable::kOffline, gap);

  exp.manager->StartThread(*exp.sender_domain, &sender, 120, 0);
  exp.manager->StartThread(*exp.receiver_domain, &receiver, 120, 0);
  return CollectObservations(exp, sender, receiver, kRounds);
}

TEST(FlushChannel, ArmUnpaddedLeaksPaddedCloses) {
  hw::MachineConfig mc = hw::MachineConfig::Sabre(1);
  mi::LeakageResult unpadded = Analyse(RunFlushChannel(mc, /*padded=*/false));
  EXPECT_TRUE(unpadded.leak) << "no-pad M=" << unpadded.MilliBits() << "mb";

  mi::LeakageResult padded = Analyse(RunFlushChannel(mc, /*padded=*/true));
  EXPECT_FALSE(padded.leak) << "padded M=" << padded.MilliBits()
                            << "mb M0=" << padded.M0MilliBits() << "mb";
}

mi::Observations RunInterruptChannel(core::Scenario scenario) {
  hw::MachineConfig mc = hw::MachineConfig::Haswell(1);
  ExperimentOptions opt;
  opt.timeslice_ms = 2.0;  // scaled-down version of the paper's 10 ms tick
  opt.sender_device_timers = {0};
  Experiment exp = MakeExperiment(mc, scenario, opt);
  hw::Cycles gap = exp.SliceGapThreshold();
  hw::Machine& m = *exp.machine;

  kernel::CapIdx timer =
      exp.manager->GrantCap(*exp.sender_domain, exp.kernel->boot_info().device_timers[0]);
  // Timer fires 2.6 ms + symbol*0.2 ms after the Trojan's slice start: 0.6
  // to 1.4 ms into the spy's slice.
  TimerTrojan trojan(timer, m.MicrosToCycles(2600), m.MicrosToCycles(200), 5, kSeed, gap);
  InterruptSpy spy(/*irq_gap=*/300, gap);

  exp.manager->StartThread(*exp.sender_domain, &trojan, 120, 0);
  exp.manager->StartThread(*exp.receiver_domain, &spy, 120, 0);
  return CollectObservations(exp, trojan, spy, 500, /*sample_lag=*/1);
}

TEST(InterruptChannel, RawLeaksPartitionedCloses) {
  mi::LeakageResult raw = Analyse(RunInterruptChannel(core::Scenario::kRaw));
  EXPECT_TRUE(raw.leak) << "raw M=" << raw.MilliBits() << "mb";

  mi::LeakageResult prot = Analyse(RunInterruptChannel(core::Scenario::kProtected));
  EXPECT_FALSE(prot.leak) << "partitioned M=" << prot.MilliBits()
                          << "mb M0=" << prot.M0MilliBits() << "mb";
}

TEST(LlcSideChannel, RawSpySeesSquarePattern) {
  SideChannelResult r = RunLlcSideChannel(hw::MachineConfig::Haswell(2),
                                          core::Scenario::kRaw, 0xB1A5ED5EEDull, 400);
  EXPECT_GT(r.activity_events, 10u) << "spy must observe square-function dots";
  EXPECT_GT(r.activity_fraction, 0.02);
}

TEST(LlcSideChannel, ColouringBlindsTheSpy) {
  SideChannelResult r = RunLlcSideChannel(hw::MachineConfig::Haswell(2),
                                          core::Scenario::kProtected, 0xB1A5ED5EEDull, 400);
  EXPECT_EQ(r.activity_slots, 0u)
      << "the spy can no longer detect any cache activity of the victim (§5.3.3)";
}

}  // namespace
}  // namespace tp::attacks
