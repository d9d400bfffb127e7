// The set-up/run contract of the registered MI channels: every cell of
// every spec that shares its set-up runs a shard on a clone from the cell's
// slot exactly as on a fresh build. A spec's cell_shard builds fresh
// outside a sweep; inside a cell slot (runner::CellSetup) it builds once
// and runs each shard on a clone. The observations and the work tallies of
// each shard agree, the ablation legs' per-cell kernel-config hooks
// included.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/core.hpp"
#include "hw/taint.hpp"
#include "kernel/kernel.hpp"
#include "runner/sweep.hpp"
#include "scenarios/scenario.hpp"

namespace tp::scenarios {
namespace {

// What one shard observed and added to the work tallies.
struct ShardRun {
  mi::Observations obs;
  hw::SimTally sim;
  kernel::StepTally steps;
};

ShardRun RunShard(const ChannelSpec& spec, const runner::GridCell& cell,
                  const runner::Shard& shard) {
  const hw::SimTally sim0 = hw::SimTallySnapshot();
  const kernel::StepTally steps0 = kernel::StepTallySnapshot();
  ShardRun out;
  out.obs = spec.cell_shard(cell, shard);
  const hw::SimTally sim1 = hw::SimTallySnapshot();
  const kernel::StepTally steps1 = kernel::StepTallySnapshot();
  out.sim = {sim1.accesses - sim0.accesses, sim1.branches - sim0.branches};
  out.steps = {steps1.step_calls - steps0.step_calls,
               steps1.fast_forward_steps - steps0.fast_forward_steps,
               steps1.fast_forward_batches - steps0.fast_forward_batches};
  return out;
}

void ExpectSame(const ShardRun& a, const ShardRun& b, const char* what) {
  EXPECT_EQ(a.obs.inputs(), b.obs.inputs()) << what;
  EXPECT_EQ(a.obs.outputs(), b.obs.outputs()) << what;
  EXPECT_EQ(a.sim.accesses, b.sim.accesses) << what;
  EXPECT_EQ(a.sim.branches, b.sim.branches) << what;
  EXPECT_EQ(a.steps.step_calls, b.steps.step_calls) << what;
  EXPECT_EQ(a.steps.fast_forward_steps, b.steps.fast_forward_steps) << what;
  EXPECT_EQ(a.steps.fast_forward_batches, b.steps.fast_forward_batches) << what;
}

class ChannelSpecSetups : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    taint_ = hw::TaintTrackingEnabled();
    hw::SetTaintTrackingEnabled(false);  // a taint-mode kernel cannot be cloned
  }
  void TearDown() override { hw::SetTaintTrackingEnabled(taint_); }

 private:
  bool taint_ = false;
};

TEST_P(ChannelSpecSetups, EveryCellRunsOnACloneLikeAFreshBuild) {
  const ChannelSpec* spec = ChannelRegistry::Global().Find(GetParam());
  ASSERT_NE(spec, nullptr);
  ASSERT_TRUE(spec->is_channel());
  std::size_t cells = 0;
  for (const runner::GridSpec& grid : spec->grids()) {
    for (const runner::GridCell& cell : runner::ExpandGrid(grid)) {
      SCOPED_TRACE(cell.Name());
      const runner::Shard shard{0, cell.seed, 14, 2};
      const ShardRun fresh = RunShard(*spec, cell, shard);
      ASSERT_GT(fresh.steps.step_calls, 0u);  // (Haswell L2 full flush observes nothing)

      runner::CellSetupSlot slot;
      runner::ScopedCellSlot scope(&slot);
      const runner::SetupTally t0 = runner::SetupTallySnapshot();
      const ShardRun first = RunShard(*spec, cell, shard);
      const ShardRun second = RunShard(*spec, cell, shard);
      const runner::SetupTally t1 = runner::SetupTallySnapshot();
      EXPECT_EQ(t1.built - t0.built, 1u);
      EXPECT_EQ(t1.cloned - t0.cloned, 2u);
      ExpectSame(first, fresh, "the slot's first shard vs a fresh build");
      ExpectSame(second, fresh, "the slot's second shard vs a fresh build");
      ++cells;
    }
  }
  EXPECT_GT(cells, 0u);
}

INSTANTIATE_TEST_SUITE_P(ProbeSpecs, ChannelSpecSetups,
                         ::testing::Values("ablation_mechanisms", "fig3_kernel_channel",
                                           "fig5_flush_channel", "fig6_interrupt_channel",
                                           "table3_intra_core", "table4_flush_channel"));

}  // namespace
}  // namespace tp::scenarios
