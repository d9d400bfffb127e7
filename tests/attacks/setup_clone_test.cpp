// The clone contract behind build-once set-ups (Experiment::Clone,
// attacks::SetupSlot, attacks::RunBufferLadder): a shard run on a clone of
// a set-up equals the same shard on a fresh build, cloning leaves the
// source as it was, a held set-up never feeds the process-wide work
// tallies, and every cell of a buffer ladder runs and tallies exactly as
// a fresh build of that cell.
#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/channel_experiment.hpp"
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
#include "workloads/splash.hpp"

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

KernelChannelSetup BuildSetup(const CellKind& kind) {
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
                           return KindName(info.param);
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
