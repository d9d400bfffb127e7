// Integration tests of the time-protection suite itself: the §4.1
// shared-data audit, nested partitioning, multicore destruction, and the
// pre-IBC ablation. Machine/kernel/domain setup comes from the
// tests/support ScenarioSystem fixture.
#include <gtest/gtest.h>

#include <set>

#include "attacks/intra_core.hpp"
#include "core/domain.hpp"
#include "core/padding.hpp"
#include "core/time_protection.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "mi/leakage_test.hpp"
#include "support/test_support.hpp"

namespace tp {
namespace {

TEST(SharedDataAudit, SwitchPathTouchesDeterministicLineSet) {
  // Requirement 3: with the prefetch in place, every domain switch accesses
  // the same, complete set of shared-data lines, regardless of which domain
  // is switched to or what userland did. The audit is about the access set,
  // not timing, so padding is off.
  test::ScenarioSystem sys(core::Scenario::kProtected, {.pad_switches = false});
  core::Domain& d1 = sys.manager.CreateDomain({.id = 1, .colours = sys.colours[0]});
  core::Domain& d2 = sys.manager.CreateDomain({.id = 2, .colours = sys.colours[1]});
  test::BusyProgram p1;
  test::BusyProgram p2;
  sys.manager.StartThread(d1, &p1, 100, 0);
  sys.manager.StartThread(d2, &p2, 100, 0);
  sys.kernel.SetDomainSchedule(0, {1, 2});
  sys.kernel.KickSchedule(0);

  std::vector<std::set<hw::PAddr>> per_switch_lines;
  std::set<hw::PAddr>* current = nullptr;
  std::uint64_t last_switches = sys.kernel.domain_switches();
  sys.kernel.SetSharedTouchProbe([&](hw::PAddr pa, bool) {
    if (current != nullptr) {
      current->insert(pa);
    }
  });

  hw::Cycles slice = sys.machine.MicrosToCycles(200.0);
  for (int i = 0; i < 12; ++i) {
    per_switch_lines.emplace_back();
    current = &per_switch_lines.back();
    sys.kernel.RunFor(slice);
    if (sys.kernel.domain_switches() == last_switches) {
      per_switch_lines.pop_back();  // no switch in this window
    }
    last_switches = sys.kernel.domain_switches();
  }
  current = nullptr;
  ASSERT_GE(per_switch_lines.size(), 4u);

  // Every switch window must cover the full shared region (the prefetch)
  // and thus be identical to every other.
  std::size_t line = sys.machine.config().llc.line_size;
  std::size_t expect_lines = kernel::SharedDataLayout::kTotal / line;
  for (std::size_t i = 1; i < per_switch_lines.size(); ++i) {
    EXPECT_EQ(per_switch_lines[i], per_switch_lines[0])
        << "switch " << i << " touched a different shared-data line set";
  }
  EXPECT_GE(per_switch_lines[0].size(), expect_lines)
      << "the prefetch must cover the entire §4.1 region";
}

TEST(NestedPartitioning, SubdivideCreatesWorkingChildDomain) {
  test::ScenarioSystem sys(core::Scenario::kProtected, {.pad_switches = false});
  core::Domain& parent = sys.manager.CreateDomain({.id = 1, .colours = sys.colours[0]});

  // Split the parent's colours between parent and child.
  std::set<std::size_t> child_colours;
  std::set<std::size_t> it = parent.colours;
  std::size_t half = it.size() / 2;
  for (std::size_t c : it) {
    if (child_colours.size() < half) {
      child_colours.insert(c);
    }
  }
  core::Domain& child = sys.manager.Subdivide(parent, 3, child_colours);

  test::BusyProgram p;
  sys.manager.StartThread(child, &p, 100, 0);
  sys.kernel.SetDomainSchedule(0, {3});
  sys.kernel.KickSchedule(0);
  sys.kernel.RunFor(500'000);
  EXPECT_GT(p.steps(), 10u) << "sub-domain threads must run on the grandchild kernel";

  // The child's kernel was cloned from the parent's image.
  const kernel::Capability& ccap = sys.manager.cspace().At(child.kernel_image);
  const kernel::Capability& pcap = sys.manager.cspace().At(parent.kernel_image);
  EXPECT_EQ(sys.kernel.objects().As<kernel::KernelImageObj>(ccap.obj).parent, pcap.obj);
}

TEST(NestedPartitioning, SubdivisionColoursMustNest) {
  test::ScenarioSystem sys(core::Scenario::kProtected);
  core::Domain& parent = sys.manager.CreateDomain({.id = 1, .colours = sys.colours[0]});
  EXPECT_THROW(sys.manager.Subdivide(parent, 3, sys.colours[1]), std::runtime_error)
      << "a sub-domain cannot take colours outside its parent's pool";
}

TEST(NestedPartitioning, DestroyingParentRevokesChildKernel) {
  test::ScenarioSystem sys(core::Scenario::kProtected);
  core::Domain& parent = sys.manager.CreateDomain({.id = 1, .colours = sys.colours[0]});
  std::set<std::size_t> child_colours{*parent.colours.begin()};
  core::Domain& child = sys.manager.Subdivide(parent, 3, child_colours);

  const kernel::Capability child_cap = sys.manager.cspace().At(child.kernel_image);
  ASSERT_TRUE(sys.kernel.objects().Validate(child_cap));
  ASSERT_TRUE(sys.manager.DestroyDomainKernel(parent).ok());
  EXPECT_FALSE(sys.kernel.objects().Validate(child_cap))
      << "revoking a Kernel_Image destroys all kernels cloned from it (§4.1)";
}

TEST(MulticoreDestroy, StallsEveryCoreRunningTheZombie) {
  // §4.4: destroying a kernel that is active on other cores sends
  // system_stall IPIs; those cores fall back to the boot kernel's idle
  // thread. Clone-capable kernel without the full protected preset — the
  // BootedSystem config with a long timeslice.
  hw::Machine machine(hw::MachineConfig::Haswell(2));
  kernel::Kernel kernel(machine, test::TestKernelConfig(/*clone_support=*/true,
                                                        /*timeslice_cycles=*/500'000));
  core::DomainManager mgr(kernel);
  core::Domain& d = mgr.CreateDomain({.id = 1});
  test::BusyProgram p0;
  test::BusyProgram p1;
  mgr.StartThread(d, &p0, 100, 0);
  mgr.StartThread(d, &p1, 100, 1);
  kernel.SetDomainSchedule(0, {1});
  kernel.SetDomainSchedule(1, {1});
  kernel.KickSchedule(0);
  kernel.KickSchedule(1);
  // Domain setup ran on core 0's clock, so run long enough for both cores
  // (RunFor advances every core past min_now + duration).
  kernel.RunFor(1'500'000);
  ASSERT_GT(p0.steps(), 0u);
  ASSERT_GT(p1.steps(), 0u);

  const kernel::Capability& cap = mgr.cspace().At(d.kernel_image);
  std::uint64_t running = kernel.objects().As<kernel::KernelImageObj>(cap.obj).running_cores;
  EXPECT_NE(running & 0b11, 0u) << "image should be running on both cores";

  ASSERT_TRUE(mgr.DestroyDomainKernel(d).ok());
  EXPECT_EQ(kernel.current_image(0), kernel.boot_image_id());
  EXPECT_EQ(kernel.current_image(1), kernel.boot_image_id());

  std::uint64_t s0 = p0.steps();
  std::uint64_t s1 = p1.steps();
  kernel.RunFor(1'500'000);
  EXPECT_EQ(p0.steps(), s0);
  EXPECT_EQ(p1.steps(), s1) << "threads of the destroyed kernel must not run";
}

TEST(IbcAblation, WithoutBpFlushTheBtbChannelReopens) {
  // §6.1: before Intel's IBC microcode there was no way to scrub the BP on
  // x86 — under full time protection the BTB channel stays open.
  std::size_t rounds = 250;
  std::uint64_t seed = test::StableSeed("IbcAblation.BtbChannel");

  const hw::MachineConfig mc = hw::MachineConfig::Haswell(1);
  auto run_btb = [&](const attacks::ExperimentOptions& options) {
    attacks::ChannelSetup setup = attacks::SetUpIntraCoreChannel(
        attacks::MakeExperiment(mc, core::Scenario::kProtected, options),
        attacks::IntraCoreResource::kBtb);
    return attacks::RunIntraCoreChannel(setup, attacks::IntraCoreResource::kBtb, rounds,
                                        seed);
  };

  mi::Observations with_ibc = run_btb(attacks::IntraCoreOptions(mc));
  mi::LeakageResult protected_result = test::Analyse(with_ibc);
  EXPECT_FALSE(protected_result.leak);

  attacks::ExperimentOptions pre_ibc_options = attacks::IntraCoreOptions(mc);
  pre_ibc_options.config_hook = [](kernel::KernelConfig& kc) { kc.has_bp_flush = false; };
  mi::Observations without_ibc = run_btb(pre_ibc_options);
  mi::LeakageResult pre_ibc = test::Analyse(without_ibc);
  EXPECT_TRUE(pre_ibc.leak) << "M=" << pre_ibc.MilliBits()
                            << "mb M0=" << pre_ibc.M0MilliBits() << "mb";
}

TEST(ColourBallooning, DomainsCanExchangeWholeColours) {
  // §6.1: re-allocating memory between domains is possible at colour
  // granularity; frames of a released colour serve the other domain.
  test::ScenarioSystem sys(core::Scenario::kProtected);
  core::Domain& d1 = sys.manager.CreateDomain({.id = 1, .colours = sys.colours[0]});
  core::Domain& d2 = sys.manager.CreateDomain({.id = 2, .colours = sys.colours[1]});

  // Move one colour from d1 to d2 and allocate with it.
  std::size_t moved = *d1.colours.begin();
  d1.colours.erase(moved);
  d2.colours.insert(moved);
  core::MappedBuffer buf = sys.manager.AllocBuffer(d2, 16 * hw::kPageSize);
  bool saw_moved_colour = false;
  for (const auto& [va, pa] : buf.pages) {
    std::size_t c = core::ColourOf(sys.machine.config(), pa);
    EXPECT_TRUE(d2.colours.count(c));
    saw_moved_colour = saw_moved_colour || c == moved;
  }
  SUCCEED();
}

}  // namespace
}  // namespace tp
