// The clone contract behind build-once set-ups (Experiment::Clone,
// attacks::SetupSlot): a shard run on a clone of a set-up equals the same
// shard on a fresh build, cloning leaves the source as it was, and a held
// set-up never feeds the process-wide work tallies.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "attacks/kernel_channel.hpp"
#include "attacks/setup_cache.hpp"
#include "core/time_protection.hpp"
#include "fuzz/oracles.hpp"
#include "hw/core.hpp"
#include "hw/machine.hpp"
#include "hw/taint.hpp"
#include "kernel/kernel.hpp"

namespace tp::attacks {
namespace {

// Forces taint tracking for a scope, restoring the previous setting.
class ScopedTaint {
 public:
  explicit ScopedTaint(bool on) : saved_(hw::TaintTrackingEnabled()) {
    hw::SetTaintTrackingEnabled(on);
  }
  ~ScopedTaint() { hw::SetTaintTrackingEnabled(saved_); }
  ScopedTaint(const ScopedTaint&) = delete;
  ScopedTaint& operator=(const ScopedTaint&) = delete;

 private:
  bool saved_;
};

constexpr std::size_t kRounds = 6;
constexpr std::uint64_t kSeed = 0x5EED;

// One fig3 cell kind.
struct CellKind {
  const char* name;
  bool sabre;
  core::Scenario scenario;
  double colour_fraction;
};

const CellKind kKinds[] = {
    {"HaswellRaw", false, core::Scenario::kRaw, 1.0},
    {"HaswellProtected", false, core::Scenario::kProtected, 1.0},
    {"HaswellProtectedHalfColours", false, core::Scenario::kProtected, 0.5},
    {"SabreRaw", true, core::Scenario::kRaw, 1.0},
    {"SabreProtected", true, core::Scenario::kProtected, 1.0},
    {"SabreProtectedHalfColours", true, core::Scenario::kProtected, 0.5},
};

KernelChannelSetup BuildSetup(const CellKind& kind) {
  ExperimentOptions options;
  options.timeslice_ms = 0.25;
  options.colour_fraction = kind.colour_fraction;
  return SetUpKernelChannel(MakeExperiment(
      kind.sabre ? hw::MachineConfig::Sabre(1) : hw::MachineConfig::Haswell(1), kind.scenario,
      options));
}

// Everything a run can be compared on.
struct State {
  std::vector<int> inputs;
  std::vector<double> outputs;
  hw::Cycles cycles = 0;
  hw::PerfCounters counters;
  std::uint64_t digest = 0;
  std::uint64_t domain_switches = 0;
};

State Snapshot(Experiment& exp, const mi::Observations& obs = {}) {
  State s;
  s.inputs = obs.inputs();
  s.outputs = obs.outputs();
  s.cycles = exp.machine->core(0).now();
  s.counters = exp.machine->core(0).counters();
  s.digest = exp.machine->StateDigest();
  s.domain_switches = exp.kernel->domain_switches();
  return s;
}

void ExpectSame(const State& a, const State& b, const std::string& what) {
  EXPECT_EQ(a.inputs, b.inputs) << what;
  EXPECT_EQ(a.outputs, b.outputs) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(fuzz::DiffPerfCounters(a.counters, b.counters), "") << what;
  EXPECT_EQ(a.digest, b.digest) << what;
  EXPECT_EQ(a.domain_switches, b.domain_switches) << what;
}

State RunShard(KernelChannelSetup& setup) {
  mi::Observations obs = RunKernelChannel(setup, kRounds, kSeed);
  return Snapshot(setup.exp, obs);
}

class SetupClone : public ::testing::TestWithParam<CellKind> {
 private:
  ScopedTaint taint_off_{false};  // a taint-mode kernel cannot be cloned
};

TEST_P(SetupClone, CloneRunsLikeAFreshBuildAndLeavesTheSourceAlone) {
  KernelChannelSetup fresh = BuildSetup(GetParam());
  const State fresh_result = RunShard(fresh);
  ASSERT_GT(fresh_result.inputs.size(), 0u);

  KernelChannelSetup source = BuildSetup(GetParam());
  const State source_before = Snapshot(source.exp);
  KernelChannelSetup clone = source.Clone();
  ExpectSame(Snapshot(clone.exp), source_before, "clone at the clone point");

  const State clone_result = RunShard(clone);
  ExpectSame(clone_result, fresh_result, "shard on the clone vs on a fresh build");
  ExpectSame(Snapshot(source.exp), source_before, "source after its clone ran");

  // A second clone, made after the first one ran, and the source itself
  // both still run the shard exactly.
  KernelChannelSetup second = source.Clone();
  ExpectSame(RunShard(second), fresh_result, "second clone");
  ExpectSame(RunShard(source), fresh_result, "source run after cloning");
}

TEST_P(SetupClone, HeldSetupNeverFeedsTheTallies) {
  const hw::SimTally sim0 = hw::SimTallySnapshot();
  const kernel::StepTally steps0 = kernel::StepTallySnapshot();
  hw::PerfCounters setup_counters;
  {
    KernelChannelSetup held = BuildSetup(GetParam());
    held.DetachTally();
    setup_counters = held.exp.machine->core(0).counters();
    RunShard(held);  // even work done on a detached set-up stays out
  }
  const hw::SimTally sim1 = hw::SimTallySnapshot();
  const kernel::StepTally steps1 = kernel::StepTallySnapshot();
  EXPECT_EQ(sim1.accesses, sim0.accesses);
  EXPECT_EQ(sim1.branches, sim0.branches);
  EXPECT_EQ(steps1.step_calls, steps0.step_calls);
  EXPECT_EQ(steps1.fast_forward_steps, steps0.fast_forward_steps);

  // A clone of a detached set-up tallies what a fresh build would: the
  // set-up's own work plus whatever the clone runs.
  KernelChannelSetup held = BuildSetup(GetParam());
  held.DetachTally();
  const hw::SimTally sim2 = hw::SimTallySnapshot();
  { KernelChannelSetup unrun = held.Clone(); }
  const hw::SimTally sim3 = hw::SimTallySnapshot();
  EXPECT_EQ(sim3.accesses - sim2.accesses,
            setup_counters.reads + setup_counters.writes + setup_counters.fetches);
  EXPECT_EQ(sim3.branches - sim2.branches, setup_counters.branches);
}

INSTANTIATE_TEST_SUITE_P(Fig3Cells, SetupClone, ::testing::ValuesIn(kKinds),
                         [](const ::testing::TestParamInfo<CellKind>& info) {
                           return std::string(info.param.name);
                         });

TEST(SetupCloneLimits, KernelWithAUserProgramCannotBeCloned) {
  ScopedTaint taint_off(false);
  KernelChannelSetup setup = BuildSetup(kKinds[3]);
  KernelProbeReceiver receiver(setup.eviction_set, setup.slice_gap);
  setup.exp.manager->StartThread(*setup.exp.receiver_domain, &receiver, 120, 0);
  EXPECT_THROW(setup.exp.Clone(), std::logic_error);
}

TEST(SetupCloneLimits, TaintModeKernelCannotBeCloned) {
  Experiment exp = [] {
    ScopedTaint taint_on(true);
    return MakeExperiment(hw::MachineConfig::Sabre(1), core::Scenario::kProtected);
  }();
  EXPECT_THROW(exp.Clone(), std::logic_error);
}

// A stand-in set-up that counts what SetupSlot does with it.
struct FakeSetup {
  int id = 0;
  bool detached = false;
  int* clones = nullptr;

  FakeSetup Clone() const {
    ++*clones;
    return FakeSetup{id, false, clones};
  }
  void DetachTally() { detached = true; }
};

TEST(SetupSlot, BuildsOncePerKeyAndHandsOutClones) {
  ScopedTaint taint_off(false);
  int builds = 0;
  int clones = 0;
  auto build = [&] { return FakeSetup{++builds, false, &clones}; };
  const SetupTally t0 = SetupTallySnapshot();
  SetupSlot<FakeSetup> slot;
  FakeSetup a = slot.Acquire("cell A", build);
  FakeSetup b = slot.Acquire("cell A", build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(clones, 2);
  EXPECT_EQ(a.id, 1);
  EXPECT_EQ(b.id, 1);
  EXPECT_FALSE(a.detached) << "clones tally normally";

  FakeSetup c = slot.Acquire("cell B", build);
  EXPECT_EQ(c.id, 2) << "a new key replaces the held set-up";
  slot.Release();
  FakeSetup d = slot.Acquire("cell B", build);
  EXPECT_EQ(d.id, 3) << "a released slot builds again";
  const SetupTally t1 = SetupTallySnapshot();
  EXPECT_EQ(t1.built - t0.built, 3u);
  EXPECT_EQ(t1.cloned - t0.cloned, 4u);
}

TEST(SetupSlot, BypassedUnderTaintAndConfigOverride) {
  int builds = 0;
  int clones = 0;
  auto build = [&] { return FakeSetup{++builds, false, &clones}; };
  ScopedTaint taint_off(false);
  SetupSlot<FakeSetup> slot;
  slot.Acquire("cell", build);
  ASSERT_TRUE(SetupSharingAllowed());

  {
    ScopedTaint taint_on(true);
    EXPECT_FALSE(SetupSharingAllowed());
    EXPECT_EQ(slot.Acquire("cell", build).id, 2);
  }

  SetGlobalConfigOverride([](kernel::KernelConfig&) {});
  EXPECT_FALSE(SetupSharingAllowed());
  EXPECT_EQ(slot.Acquire("cell", build).id, 3);
  SetGlobalConfigOverride(nullptr);

  EXPECT_EQ(slot.Acquire("cell", build).id, 1) << "the held set-up survives a bypass";
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(clones, 2);
}

}  // namespace
}  // namespace tp::attacks
