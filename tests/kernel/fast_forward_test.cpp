// Kernel::RunUntil fast-forwards runs of quiescent steps (steps that only
// advance the clock) in one clock step. These tests hold it to the
// per-step reference — StepCore on the lowest-clock core — for every
// SymbolSender/SliceReceiver pair of src/attacks and for the idle thread,
// and check the batched x86 manual L1-D flush against its per-line loop.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault.hpp"
#include "fuzz/oracles.hpp"
#include "hw/machine.hpp"
#include "hw/taint.hpp"
#include "kernel/kernel.hpp"

namespace tp {
namespace {

using fuzz::QuiescentFamily;

class QuiescentEquivalence
    : public ::testing::TestWithParam<std::tuple<QuiescentFamily, bool, bool>> {};

TEST_P(QuiescentEquivalence, RunUntilMatchesStepCoreLoop) {
  const auto [family, sabre, same_core] = GetParam();
  std::uint64_t sender_skipped = 0;
  std::uint64_t receiver_skipped = 0;
  for (core::Scenario scenario : {core::Scenario::kRaw, core::Scenario::kProtected}) {
    fuzz::QuiescentSpec spec;
    spec.family = family;
    spec.sabre = sabre;
    spec.same_core = same_core;
    spec.scenario = scenario;
    spec.timeslice_ms = sabre ? 0.5 : 0.25;  // as RunIntraCoreChannel
    // Uneven chunks, so RunUntil's `until` falls inside quiescent runs.
    spec.chunks = {16, 5, 11, 16, 3, 13, 16};
    spec.irq_delay_ticks = 0.3;  // the Trojan's IRQ lands inside the spy's slice
    spec.seed = 17;
    const fuzz::QuiescentOutcome outcome = fuzz::CompareQuiescent(spec);
    EXPECT_EQ(outcome.diff, "") << core::ScenarioName(scenario);
    sender_skipped += outcome.sender_fast_forwarded;
    receiver_skipped += outcome.receiver_fast_forwarded;
  }
  // The comparison means something only if the programs took the fast
  // path. Across cores it is rarer: a step is skipped only while it starts
  // before the other core's clock, and there both programs take short
  // steps.
  if (same_core) {
    EXPECT_GT(sender_skipped, 0u);
    EXPECT_GT(receiver_skipped, 0u);
  } else {
    EXPECT_GT(sender_skipped + receiver_skipped, 0u);
  }
}

std::string FamilyCaseName(
    const ::testing::TestParamInfo<std::tuple<QuiescentFamily, bool, bool>>& info) {
  std::string name = fuzz::QuiescentFamilyName(std::get<0>(info.param));
  std::string out;
  for (char c : name) {
    if (c != '-') {
      out += c;
    }
  }
  return out + (std::get<1>(info.param) ? "_Sabre" : "_Haswell") +
         (std::get<2>(info.param) ? "_OneCore" : "_CrossCore");
}

INSTANTIATE_TEST_SUITE_P(
    Channels, QuiescentEquivalence,
    ::testing::Combine(::testing::Values(QuiescentFamily::kL1D, QuiescentFamily::kL1I,
                                         QuiescentFamily::kL2, QuiescentFamily::kTlb,
                                         QuiescentFamily::kBtb, QuiescentFamily::kBhb,
                                         QuiescentFamily::kKernel,
                                         QuiescentFamily::kFlushOffline,
                                         QuiescentFamily::kFlushOnline,
                                         QuiescentFamily::kInterrupt),
                       ::testing::Bool(), ::testing::Bool()),
    FamilyCaseName);

// A kernel with nothing runnable spends its time in the idle threads: the
// whole run is quiescent apart from the preemption ticks.
TEST(QuiescentIdle, IdleThreadsFastForwardBetweenTicks) {
  struct Out {
    std::vector<hw::Cycles> clocks;
    std::uint64_t digest = 0;
    std::uint64_t switches = 0;
  };
  auto run = [](bool stepwise) {
    hw::Machine machine(hw::MachineConfig::Haswell(2));
    kernel::KernelConfig kc;
    kc.timeslice_cycles = 50'000;
    kernel::Kernel kernel(machine, kc);
    kernel.SetDomainSchedule({0, 1});
    for (hw::Cycles until : {120'000u, 120'001u, 333'333u}) {
      if (stepwise) {
        fuzz::StepwiseRunUntil(kernel, until);
      } else {
        kernel.RunUntil(until);
      }
    }
    Out out;
    for (std::size_t c = 0; c < machine.num_cores(); ++c) {
      out.clocks.push_back(machine.core(c).now());
    }
    out.digest = machine.StateDigest();
    out.switches = kernel.domain_switches();
    return out;
  };
  const kernel::StepTally before = kernel::StepTallySnapshot();
  const Out fast = run(false);
  const kernel::StepTally after = kernel::StepTallySnapshot();
  const Out ref = run(true);
  EXPECT_EQ(fast.clocks, ref.clocks);
  EXPECT_EQ(fast.digest, ref.digest);
  EXPECT_EQ(fast.switches, ref.switches);
  EXPECT_GT(after.fast_forward_steps - before.fast_forward_steps, 0u);
  // Each batch replaces at least two StepCore calls.
  EXPECT_GE(after.fast_forward_steps - before.fast_forward_steps,
            2 * (after.fast_forward_batches - before.fast_forward_batches));
}

// The x86 protected switch flushes the L1-D by loading one word per line
// of an L1-D-sized buffer. The kernel issues those loads as one live
// batch; it must equal the per-line Core::Access loop it replaced.
struct FlushOut {
  hw::Cycles cycles = 0;
  hw::PerfCounters counters;
  std::uint64_t digest = 0;
};

FlushOut RunManualFlush(bool batched, bool memo_stale) {
  if (memo_stale) {
    faults::InstallFaultPlan(faults::FaultPlan{"memo.stale", "", 5});
  }
  hw::Machine machine(hw::MachineConfig::Haswell(1));
  kernel::KernelConfig kc;
  // Leave only the TLB and L1-D parts of the x86 on-core flush.
  kc.has_bp_flush = false;
  kc.skip_l1i_flush = true;
  kernel::Kernel kernel(machine, kc);
  if (memo_stale) {
    faults::ClearFaultPlan();
  }
  hw::Core& cpu = machine.core(0);
  const hw::CacheGeometry& l1d = machine.config().l1d;
  // Dirty more lines than the L1-D holds, so the flush writes back.
  const hw::PAddr shared = kernel.shared_data().base;
  for (std::size_t off = 0; off < 2 * l1d.size_bytes; off += l1d.line_size) {
    cpu.Access(hw::KernelVaddrFor(shared + off % (8 * 1024)), hw::AccessKind::kWrite);
    cpu.Access(hw::KernelVaddrFor(kernel.ManualFlushBuffer(0) + off / 2), hw::AccessKind::kRead);
  }
  if (batched) {
    kernel.MeasureOnCoreFlush(0);
  } else {
    cpu.FlushTlbAll();
    for (std::size_t off = 0; off < l1d.size_bytes; off += l1d.line_size) {
      cpu.Access(hw::KernelVaddrFor(kernel.ManualFlushBuffer(0) + off), hw::AccessKind::kRead);
    }
  }
  return FlushOut{cpu.now(), cpu.counters(), machine.StateDigest()};
}

void ExpectSameFlush(bool memo_stale, const char* what) {
  const FlushOut batched = RunManualFlush(true, memo_stale);
  const FlushOut per_line = RunManualFlush(false, memo_stale);
  EXPECT_EQ(batched.cycles, per_line.cycles) << what;
  EXPECT_EQ(fuzz::DiffPerfCounters(batched.counters, per_line.counters), "") << what;
  EXPECT_EQ(batched.digest, per_line.digest) << what;
}

TEST(ManualL1DFlush, BatchEqualsPerLineLoop) {
  const bool saved = hw::TaintTrackingEnabled();
  hw::SetTaintTrackingEnabled(false);
  ExpectSameFlush(false, "taint off");
  hw::SetTaintTrackingEnabled(true);
  ExpectSameFlush(false, "taint on");
  hw::SetTaintTrackingEnabled(saved);
  ExpectSameFlush(true, "memo.stale armed");
}

}  // namespace
}  // namespace tp
