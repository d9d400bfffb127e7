// The clone contract behind build-once set-ups (Experiment::Clone,
// ChannelSetup, runner::CellSetup, attacks::RunBufferLadder): a shard run
// on a clone of a set-up equals the same shard on a fresh build, in its
// observations and in the work it tallies; cloning leaves the source as it
// was; a held set-up never feeds the process-wide work tallies; a cell
// slot builds once and is bypassed when set-ups must not be shared; and
// every cell of a buffer ladder runs and tallies exactly as a fresh build
// of that cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "attacks/flush_channel.hpp"
#include "attacks/interrupt_channel.hpp"
#include "attacks/intra_core.hpp"
#include "attacks/kernel_channel.hpp"
#include "attacks/setup_cache.hpp"
#include "attacks/splash_cost.hpp"
#include "core/time_protection.hpp"
#include "fuzz/oracles.hpp"
#include "hw/core.hpp"
#include "hw/machine.hpp"
#include "hw/taint.hpp"
#include "kernel/kernel.hpp"
#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "workloads/splash.hpp"

namespace tp::attacks {
namespace {

using runner::SetupTally;
using runner::SetupTallySnapshot;

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

// The process-wide work tallies.
struct Tallies {
  hw::SimTally sim;
  kernel::StepTally steps;

  static Tallies Now() { return {hw::SimTallySnapshot(), kernel::StepTallySnapshot()}; }
  Tallies operator+(const Tallies& o) const {
    return {{sim.accesses + o.sim.accesses, sim.branches + o.sim.branches},
            {steps.step_calls + o.steps.step_calls,
             steps.fast_forward_steps + o.steps.fast_forward_steps,
             steps.fast_forward_batches + o.steps.fast_forward_batches}};
  }
  Tallies operator-(const Tallies& o) const {
    return {{sim.accesses - o.sim.accesses, sim.branches - o.sim.branches},
            {steps.step_calls - o.steps.step_calls,
             steps.fast_forward_steps - o.steps.fast_forward_steps,
             steps.fast_forward_batches - o.steps.fast_forward_batches}};
  }
  bool operator==(const Tallies& o) const {
    return sim.accesses == o.sim.accesses && sim.branches == o.sim.branches &&
           steps.step_calls == o.steps.step_calls &&
           steps.fast_forward_steps == o.steps.fast_forward_steps &&
           steps.fast_forward_batches == o.steps.fast_forward_batches;
  }
};

// One fig3 cell kind. Plain values only: gtest prints a parameter's bytes
// into the test's full name, so a pointer member would put a load address
// (different on every run) into it.
struct CellKind {
  bool sabre;
  core::Scenario scenario;
  double colour_fraction;
  double timeslice_ms;
};

const CellKind kKinds[] = {
    {false, core::Scenario::kRaw, 1.0, 0.25},
    {false, core::Scenario::kProtected, 1.0, 0.25},
    {false, core::Scenario::kProtected, 0.5, 0.25},
    {true, core::Scenario::kRaw, 1.0, 0.25},
    {true, core::Scenario::kProtected, 1.0, 0.25},
    {true, core::Scenario::kProtected, 0.5, 0.25},
};

// "HaswellRaw", "SabreProtectedHalfColours", ...
std::string KindName(const CellKind& kind) {
  std::string name = kind.sabre ? "Sabre" : "Haswell";
  name += kind.scenario == core::Scenario::kRaw ? "Raw" : "Protected";
  if (kind.colour_fraction < 1.0) {
    name += "HalfColours";
  }
  return name;
}

ChannelSetup BuildSetup(const CellKind& kind) {
  ExperimentOptions options;
  options.timeslice_ms = kind.timeslice_ms;
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

State RunShard(ChannelSetup& setup) {
  mi::Observations obs = RunKernelChannel(setup, kRounds, kSeed);
  return Snapshot(setup.exp, obs);
}

class SetupClone : public ::testing::TestWithParam<CellKind> {
 private:
  ScopedTaint taint_off_{false};  // a taint-mode kernel cannot be cloned
};

TEST_P(SetupClone, CloneRunsLikeAFreshBuildAndLeavesTheSourceAlone) {
  ChannelSetup fresh = BuildSetup(GetParam());
  const State fresh_result = RunShard(fresh);
  ASSERT_GT(fresh_result.inputs.size(), 0u);

  ChannelSetup source = BuildSetup(GetParam());
  const State source_before = Snapshot(source.exp);
  ChannelSetup clone = source.Clone();
  ExpectSame(Snapshot(clone.exp), source_before, "clone at the clone point");

  const State clone_result = RunShard(clone);
  ExpectSame(clone_result, fresh_result, "shard on the clone vs on a fresh build");
  ExpectSame(Snapshot(source.exp), source_before, "source after its clone ran");

  // A second clone, made after the first one ran, and the source itself
  // both still run the shard exactly.
  ChannelSetup second = source.Clone();
  ExpectSame(RunShard(second), fresh_result, "second clone");
  ExpectSame(RunShard(source), fresh_result, "source run after cloning");
}

TEST_P(SetupClone, HeldSetupNeverFeedsTheTallies) {
  const hw::SimTally sim0 = hw::SimTallySnapshot();
  const kernel::StepTally steps0 = kernel::StepTallySnapshot();
  hw::PerfCounters setup_counters;
  {
    ChannelSetup held = BuildSetup(GetParam());
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
  ChannelSetup held = BuildSetup(GetParam());
  held.DetachTally();
  const hw::SimTally sim2 = hw::SimTallySnapshot();
  { ChannelSetup unrun = held.Clone(); }
  const hw::SimTally sim3 = hw::SimTallySnapshot();
  EXPECT_EQ(sim3.accesses - sim2.accesses,
            setup_counters.reads + setup_counters.writes + setup_counters.fetches);
  EXPECT_EQ(sim3.branches - sim2.branches, setup_counters.branches);
}

INSTANTIATE_TEST_SUITE_P(Fig3Cells, SetupClone, ::testing::ValuesIn(kKinds),
                         [](const ::testing::TestParamInfo<CellKind>& info) {
                           return KindName(info.param);
                         });

// --- Every other channel's set-up kind --------------------------------------

// One channel set-up kind: how a cell builds it and how a shard runs on it.
struct ChannelKind {
  std::string name;
  std::function<ChannelSetup()> build;
  std::function<mi::Observations(ChannelSetup&)> run;
};

// Names the kind in test ids (the default prints the struct's bytes).
void PrintTo(const ChannelKind& kind, std::ostream* os) { *os << kind.name; }

// Every intra-core resource on both platforms (the Haswell L2 and TLB
// included), the flush channel's observables with and without padding, and
// the interrupt channel raw and partitioned.
std::vector<ChannelKind> ChannelKinds() {
  std::vector<ChannelKind> kinds;
  for (const bool sabre : {false, true}) {
    const hw::MachineConfig mc =
        sabre ? hw::MachineConfig::Sabre(1) : hw::MachineConfig::Haswell(1);
    for (const IntraCoreResource r :
         {IntraCoreResource::kL1D, IntraCoreResource::kL1I, IntraCoreResource::kTlb,
          IntraCoreResource::kBtb, IntraCoreResource::kBhb, IntraCoreResource::kL2}) {
      if (!ResourceAvailable(r, mc)) {
        continue;
      }
      std::string name =
          std::string(sabre ? "Sabre" : "Haswell") + "IntraCore" + ResourceName(r);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      kinds.push_back({name,
                       [mc, r] {
                         return SetUpIntraCoreChannel(
                             MakeExperiment(mc, core::Scenario::kRaw, IntraCoreOptions(mc)), r);
                       },
                       [r](ChannelSetup& setup) {
                         return RunIntraCoreChannel(setup, r, kRounds, kSeed);
                       }});
    }
  }
  for (const bool online : {false, true}) {
    for (const bool pad : {false, true}) {
      FlushChannelParams params;
      params.observable = online ? TimingObservable::kOnline : TimingObservable::kOffline;
      kinds.push_back({std::string("SabreFlush") + (online ? "Online" : "Offline") +
                           (pad ? "Protected" : "Nopad"),
                       [pad] {
                         ExperimentOptions opt;
                         opt.timeslice_ms = 0.5;
                         opt.disable_padding = !pad;
                         return SetUpFlushChannel(MakeExperiment(
                             hw::MachineConfig::Sabre(1), core::Scenario::kProtected, opt));
                       },
                       [params](ChannelSetup& setup) {
                         return RunFlushChannel(setup, params, kRounds, kSeed);
                       }});
    }
  }
  for (const core::Scenario scenario : {core::Scenario::kRaw, core::Scenario::kProtected}) {
    kinds.push_back({std::string("HaswellInterrupt") +
                         (scenario == core::Scenario::kRaw ? "Raw" : "Protected"),
                     [scenario] {
                       ExperimentOptions opt;
                       opt.timeslice_ms = 1.0;
                       opt.sender_device_timers = {0};
                       return SetUpInterruptChannel(
                           MakeExperiment(hw::MachineConfig::Haswell(1), scenario, opt), {});
                     },
                     [](ChannelSetup& setup) {
                       return RunInterruptChannel(setup, {}, kRounds, kSeed);
                     }});
  }
  return kinds;
}

class ChannelSetupClone : public ::testing::TestWithParam<ChannelKind> {
 private:
  ScopedTaint taint_off_{false};
};

// A shard on a clone of a held (detached) set-up sees and tallies exactly
// what the same shard on a fresh build does, set-up to teardown, and
// leaves the held set-up as it was.
TEST_P(ChannelSetupClone, RunsAndTalliesLikeAFreshBuild) {
  const ChannelKind& kind = GetParam();
  Tallies t0 = Tallies::Now();
  State fresh;
  {
    ChannelSetup setup = kind.build();
    const mi::Observations obs = kind.run(setup);
    fresh = Snapshot(setup.exp, obs);
  }
  const Tallies fresh_work = Tallies::Now() - t0;
  ASSERT_GT(fresh.inputs.size(), 0u);
  ASSERT_GT(fresh_work.steps.step_calls, 0u);

  ChannelSetup held = kind.build();
  held.DetachTally();
  const State held_before = Snapshot(held.exp);
  for (const char* what : {"first clone", "second clone"}) {
    t0 = Tallies::Now();
    State cloned;
    {
      ChannelSetup clone = held.Clone();
      const mi::Observations obs = kind.run(clone);
      cloned = Snapshot(clone.exp, obs);
    }
    const Tallies clone_work = Tallies::Now() - t0;
    ExpectSame(cloned, fresh, what);
    EXPECT_TRUE(clone_work == fresh_work)
        << what << ": accesses " << clone_work.sim.accesses << " vs "
        << fresh_work.sim.accesses << ", step calls " << clone_work.steps.step_calls << " vs "
        << fresh_work.steps.step_calls;
    ExpectSame(Snapshot(held.exp), held_before, std::string("held set-up after the ") + what);
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, ChannelSetupClone, ::testing::ValuesIn(ChannelKinds()),
                         [](const ::testing::TestParamInfo<ChannelKind>& info) {
                           return info.param.name;
                         });

TEST(SetupCloneLimits, KernelWithAUserProgramCannotBeCloned) {
  ScopedTaint taint_off(false);
  ChannelSetup setup = BuildSetup(kKinds[3]);
  KernelProbeReceiver receiver(*setup.eviction_set, setup.exp.SliceGapThreshold());
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

// A stand-in set-up that counts what a cell slot does with it.
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

// The engine's cell slot: one build per cell, a clone for every shard,
// and once released, every set-up built fresh.
TEST(SetupSlot, BuildsOncePerKeyAndHandsOutClones) {
  ScopedTaint taint_off(false);
  int builds = 0;
  int clones = 0;
  auto build = [&] { return FakeSetup{++builds, false, &clones}; };
  const SetupTally t0 = SetupTallySnapshot();
  runner::CellSetupSlot cell_a;
  runner::CellSetupSlot cell_b;
  FakeSetup a;
  FakeSetup b;
  {
    runner::ScopedCellSlot scope(&cell_a);
    a = runner::CellSetup(SetupSharingAllowed(), build);
    b = runner::CellSetup(SetupSharingAllowed(), build);
  }
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(clones, 2);
  EXPECT_EQ(a.id, 1);
  EXPECT_EQ(b.id, 1);
  EXPECT_FALSE(a.detached) << "clones tally normally";

  FakeSetup c = cell_b.Acquire(build);
  EXPECT_EQ(c.id, 2) << "another cell's slot builds its own";
  EXPECT_EQ(cell_a.Acquire(build).id, 1) << "and leaves the first one's alone";
  cell_a.Release();
  EXPECT_EQ(cell_a.Acquire(build).id, 3) << "a released slot builds fresh";
  EXPECT_EQ(cell_a.Acquire(build).id, 4) << "and holds nothing";
  EXPECT_EQ(runner::CellSetup(SetupSharingAllowed(), build).id, 5) << "outside any slot";
  const SetupTally t1 = SetupTallySnapshot();
  EXPECT_EQ(t1.built - t0.built, 5u);
  EXPECT_EQ(t1.cloned - t0.cloned, 4u);
  EXPECT_EQ(clones, 4);
}

TEST(SetupSlot, BypassedUnderTaintAndConfigOverride) {
  int builds = 0;
  int clones = 0;
  auto build = [&] { return FakeSetup{++builds, false, &clones}; };
  ScopedTaint taint_off(false);
  runner::CellSetupSlot slot;
  runner::ScopedCellSlot scope(&slot);
  runner::CellSetup(SetupSharingAllowed(), build);
  ASSERT_TRUE(SetupSharingAllowed());

  {
    ScopedTaint taint_on(true);
    EXPECT_FALSE(SetupSharingAllowed());
    EXPECT_EQ(runner::CellSetup(SetupSharingAllowed(), build).id, 2);
  }

  SetGlobalConfigOverride([](kernel::KernelConfig&) {});
  EXPECT_FALSE(SetupSharingAllowed());
  EXPECT_EQ(runner::CellSetup(SetupSharingAllowed(), build).id, 3);
  SetGlobalConfigOverride(nullptr);

  EXPECT_EQ(runner::CellSetup(SetupSharingAllowed(), build).id, 1)
      << "the held set-up survives a bypass";
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(clones, 2);
}

// --- Buffer ladders over the Splash cost set-ups ---------------------------

// Sabre working sets in a ladder's index order: 1.0, 0.375, 0.5, 0.375 and
// 0.25 x LLC, so the ladder reorders them and grows twice to one size.
const workloads::SplashKind kLadderKinds[] = {
    workloads::SplashKind::kFft, workloads::SplashKind::kLu, workloads::SplashKind::kBarnes,
    workloads::SplashKind::kWaterSpatial, workloads::SplashKind::kWaterNSquared};
constexpr std::size_t kLadderCells = std::size(kLadderKinds);

// One group of a Splash cost grid on Sabre: Figure 7's solo set-up (on a
// clone-capable kernel when `protect`) or Table 8's time-shared one
// (protected and padded when `protect`, else raw).
struct LadderGroup {
  const char* name;
  bool time_shared;
  bool protect;
  double colour_fraction;
};

// Names the group in test ids (the default prints the struct's bytes).
void PrintTo(const LadderGroup& group, std::ostream* os) { *os << group.name; }

const LadderGroup kLadderGroups[] = {
    {"Fig7Base", false, false, 1.0},
    {"Fig7CloneHalfColours", false, true, 0.5},
    {"Table8Raw", true, false, 1.0},
    {"Table8ProtectedHalfColours", true, true, 0.5},
};

const hw::MachineConfig kSabre = hw::MachineConfig::Sabre(1);

// The group's set-up, without its buffer.
SplashSetup BuildGroup(const LadderGroup& group) {
  if (!group.time_shared) {
    return SetUpSplashSolo(kSabre, group.protect, group.colour_fraction);
  }
  return SetUpSplashTimeShared(
      kSabre, group.protect ? core::Scenario::kProtected : core::Scenario::kRaw, group.protect,
      group.colour_fraction);
}

// One benchmark on a set-up of the group: cycles for Figure 7, accesses
// for Table 8.
double RunCell(const LadderGroup& group, SplashSetup& setup, workloads::SplashKind kind) {
  if (!group.time_shared) {
    return RunSplashSolo(setup, kind, 3000);
  }
  return static_cast<double>(RunSplashTimeShared(setup, kind, 1));
}

std::vector<std::size_t> LadderSizes() {
  std::vector<std::size_t> sizes;
  for (workloads::SplashKind kind : kLadderKinds) {
    sizes.push_back(workloads::WorkingSetBytes(kind, kSabre));
  }
  return sizes;
}

// One cell as a fresh build runs it: its result, what it added to the
// tallies, and its contract tally, set-up to teardown.
struct FreshCell {
  double value = 0.0;
  Tallies work;
  hw::ContractTally contract;
};

FreshCell RunFresh(const LadderGroup& group, workloads::SplashKind kind) {
  FreshCell out;
  const Tallies t0 = Tallies::Now();
  hw::ContractCapture capture;
  {
    SplashSetup setup = BuildGroup(group);
    setup.Grow(workloads::WorkingSetBytes(kind, kSabre));
    out.value = RunCell(group, setup, kind);
  }
  out.contract = capture.Take();
  out.work = Tallies::Now() - t0;
  return out;
}

std::vector<FreshCell> RunFreshGroup(const LadderGroup& group) {
  std::vector<FreshCell> cells;
  for (workloads::SplashKind kind : kLadderKinds) {
    cells.push_back(RunFresh(group, kind));
  }
  return cells;
}

// The ladder's cell values, and what each cell added to the tallies: a
// cell's work lands when its clone (or, for the last, the set-up) is
// destroyed, before the next cell's run starts.
struct LadderRun {
  std::vector<LadderCell<double>> cells;
  std::vector<Tallies> work;           // by cell index
  std::vector<std::size_t> run_order;  // cell indices in the order they ran
};

LadderRun RunLadder(const LadderGroup& group) {
  LadderRun out;
  std::vector<Tallies> marks;
  auto build = [&group] { return BuildGroup(group); };
  auto run = [&](SplashSetup& setup, std::size_t i) {
    out.run_order.push_back(i);
    marks.push_back(Tallies::Now());
    return RunCell(group, setup, kLadderKinds[i]);
  };
  out.cells = RunBufferLadder(LadderSizes(), build, run);
  marks.push_back(Tallies::Now());
  out.work.resize(kLadderCells);
  for (std::size_t k = 0; k < out.run_order.size(); ++k) {
    out.work[out.run_order[k]] = marks[k + 1] - marks[k];
  }
  return out;
}

class BufferLadder : public ::testing::TestWithParam<LadderGroup> {
 private:
  ScopedTaint taint_off_{false};  // a taint-mode kernel cannot be cloned
};

TEST_P(BufferLadder, EveryCellRunsAndTalliesLikeAFreshBuild) {
  const std::vector<FreshCell> fresh = RunFreshGroup(GetParam());
  const SetupTally s0 = SetupTallySnapshot();
  const LadderRun ladder = RunLadder(GetParam());
  const SetupTally s1 = SetupTallySnapshot();
  EXPECT_EQ(s1.built - s0.built, 1u);
  EXPECT_EQ(s1.cloned - s0.cloned, kLadderCells - 1) << "the last cell runs on the set-up";
  EXPECT_EQ(ladder.run_order, (std::vector<std::size_t>{4, 1, 3, 2, 0}))
      << "ascending size, ties in index order";
  for (std::size_t i = 0; i < kLadderCells; ++i) {
    SCOPED_TRACE(workloads::SplashName(kLadderKinds[i]));
    EXPECT_GT(fresh[i].value, 0.0);
    EXPECT_EQ(ladder.cells[i].value, fresh[i].value);
    EXPECT_TRUE(ladder.work[i] == fresh[i].work)
        << "accesses " << ladder.work[i].sim.accesses << " vs " << fresh[i].work.sim.accesses
        << ", step calls " << ladder.work[i].steps.step_calls << " vs "
        << fresh[i].work.steps.step_calls;
    EXPECT_GT(ladder.cells[i].wall_ns, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(SplashGroups, BufferLadder, ::testing::ValuesIn(kLadderGroups),
                         [](const ::testing::TestParamInfo<LadderGroup>& info) {
                           return std::string(info.param.name);
                         });

// Ladders of several groups at once on a pool, as the Splash grids run
// them: the same cells and the same total work at one thread and at four.
TEST(BufferLadderPool, SameCellsAndWorkAtOneAndFourThreads) {
  ScopedTaint taint_off(false);
  std::vector<double> fresh_values;
  Tallies fresh_work;
  for (const LadderGroup& group : kLadderGroups) {
    for (const FreshCell& cell : RunFreshGroup(group)) {
      fresh_values.push_back(cell.value);
      fresh_work = fresh_work + cell.work;
    }
  }
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const runner::ExperimentRunner pool(threads);
    const Tallies t0 = Tallies::Now();
    const auto ladders = pool.Map(std::size(kLadderGroups), [](std::size_t g) {
      const LadderGroup& group = kLadderGroups[g];
      auto build = [&group] { return BuildGroup(group); };
      auto run = [&group](SplashSetup& setup, std::size_t i) {
        return RunCell(group, setup, kLadderKinds[i]);
      };
      return RunBufferLadder(LadderSizes(), build, run);
    });
    const Tallies work = Tallies::Now() - t0;
    std::vector<double> values;
    for (const auto& ladder : ladders) {
      for (const LadderCell<double>& cell : ladder) {
        values.push_back(cell.value);
      }
    }
    EXPECT_EQ(values, fresh_values);
    EXPECT_TRUE(work == fresh_work) << "accesses " << work.sim.accesses << " vs "
                                    << fresh_work.sim.accesses;
  }
}

// Under taint tracking or a config override the ladder builds every size
// fresh; each cell's contract tally still covers its whole life, teardown
// included, exactly as a fresh build's capture does.
TEST(BufferLadderBypass, BuildsEverySizeFreshUnderTaintAndConfigOverride) {
  const LadderGroup& raw = kLadderGroups[2];
  {
    ScopedTaint taint_on(true);
    const std::vector<FreshCell> fresh = RunFreshGroup(raw);
    const SetupTally s0 = SetupTallySnapshot();
    const LadderRun ladder = RunLadder(raw);
    const SetupTally s1 = SetupTallySnapshot();
    EXPECT_EQ(s1.built - s0.built, kLadderCells);
    EXPECT_EQ(s1.cloned - s0.cloned, 0u);
    for (std::size_t i = 0; i < kLadderCells; ++i) {
      SCOPED_TRACE(workloads::SplashName(kLadderKinds[i]));
      EXPECT_EQ(ladder.cells[i].value, fresh[i].value);
      EXPECT_TRUE(ladder.work[i] == fresh[i].work);
      const hw::ContractTally& c = ladder.cells[i].contract;
      EXPECT_GT(c.switches, 0u);
      EXPECT_FALSE(c.clean()) << "a raw kernel leaves residue";
      EXPECT_EQ(c.switches, fresh[i].contract.switches);
      EXPECT_EQ(c.dirty_switches, fresh[i].contract.dirty_switches);
      EXPECT_EQ(c.violations, fresh[i].contract.violations);
      EXPECT_EQ(c.whitelisted, fresh[i].contract.whitelisted);
    }
  }

  ScopedTaint taint_off(false);
  SetGlobalConfigOverride([](kernel::KernelConfig&) {});
  const SetupTally s0 = SetupTallySnapshot();
  const LadderRun ladder = RunLadder(kLadderGroups[0]);
  const SetupTally s1 = SetupTallySnapshot();
  SetGlobalConfigOverride(nullptr);
  EXPECT_EQ(s1.built - s0.built, kLadderCells);
  EXPECT_EQ(s1.cloned - s0.cloned, 0u);
}

}  // namespace
}  // namespace tp::attacks
