#include "core/domain.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/colour.hpp"
#include "core/time_protection.hpp"
#include "fuzz/oracles.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "support/test_support.hpp"

namespace tp::core {
namespace {

TEST(DomainManager, SharedKernelHandsOutNoCloneDerivedCap) {
  test::BootedSystem sys(1, /*clone_support=*/false);
  DomainManager mgr(sys.kernel);
  Domain& d = mgr.CreateDomain({.id = 1});
  const kernel::Capability& cap = mgr.cspace().At(d.kernel_image);
  EXPECT_EQ(cap.type, kernel::ObjectType::kKernelImage);
  EXPECT_FALSE(cap.rights.clone) << "derived image caps must not carry the clone right";
  Domain& d2 = mgr.CreateDomain({.id = 2});
  EXPECT_EQ(mgr.cspace().At(d.kernel_image).obj, mgr.cspace().At(d2.kernel_image).obj)
      << "without clone support all domains share the boot image";
}

TEST(DomainManager, CloneCapableDomainsGetDistinctKernelImages) {
  test::BootedSystem sys(1, /*clone_support=*/true);
  DomainManager mgr(sys.kernel);
  auto colours = SplitColours(sys.machine.config(), 2);
  Domain& d1 = mgr.CreateDomain({.id = 1, .colours = colours[0]});
  Domain& d2 = mgr.CreateDomain({.id = 2, .colours = colours[1]});
  EXPECT_NE(mgr.cspace().At(d1.kernel_image).obj, mgr.cspace().At(d2.kernel_image).obj);
  EXPECT_NE(mgr.cspace().At(d1.kernel_image).obj,
            mgr.cspace().At(sys.kernel.boot_info().kernel_image).obj)
      << "a domain kernel is a clone, not the boot image";
}

class DomainManagerRandomised : public test::DeterministicTest {};

TEST_F(DomainManagerRandomised, AllocBufferRespectsDomainColours) {
  test::BootedSystem sys(1, /*clone_support=*/true);
  DomainManager mgr(sys.kernel);
  auto colours = SplitColours(sys.machine.config(), 2);
  Domain& d = mgr.CreateDomain({.id = 1, .colours = colours[0]});
  MappedBuffer buf = mgr.AllocBuffer(d, 64 * 1024);
  ASSERT_EQ(buf.pages.size(), 64u * 1024 / hw::kPageSize);
  for (const auto& [va, pa] : buf.pages) {
    EXPECT_EQ(va % hw::kPageSize, 0u);
    EXPECT_TRUE(colours[0].count(ColourOf(sys.machine.config(), pa)) > 0)
        << "frame colour escaped the domain partition";
  }
  // PaddrOf resolves interior addresses through the right page, wherever
  // they land (offsets drawn from the fixture's per-test-name RNG).
  std::uniform_int_distribution<std::size_t> page_dist(0, buf.pages.size() - 1);
  std::uniform_int_distribution<hw::VAddr> off_dist(0, hw::kPageSize - 1);
  for (int i = 0; i < 32; ++i) {
    std::size_t page = page_dist(rng());
    hw::VAddr off = off_dist(rng());
    EXPECT_EQ(buf.PaddrOf(buf.base + page * hw::kPageSize + off),
              buf.pages[page].second + off);
  }
}

// What a buffer allocation leaves behind: the buffer, the domain's next
// free address, and the simulated machine.
struct AllocState {
  MappedBuffer buffer;
  hw::VAddr next_vaddr = 0;
  hw::Cycles cycles = 0;
  hw::PerfCounters counters;
  std::uint64_t digest = 0;
};

// Maps one `bytes` buffer in a protected domain: in one AllocBuffer when
// `steps` is empty, else as an empty buffer grown through `steps` and
// then to `bytes`.
AllocState Allocate(const hw::MachineConfig& config, std::size_t bytes,
                    const std::vector<std::size_t>& steps) {
  test::ScenarioSystem sys(Scenario::kProtected, {.config = config});
  Domain& d = sys.manager.CreateDomain({.id = 1, .colours = sys.colours[0]});
  AllocState s;
  if (steps.empty()) {
    s.buffer = sys.manager.AllocBuffer(d, bytes);
  } else {
    s.buffer = sys.manager.AllocBuffer(d, 0);
    EXPECT_TRUE(s.buffer.pages.empty());
    for (std::size_t step : steps) {
      sys.manager.GrowBuffer(d, s.buffer, step);
    }
    sys.manager.GrowBuffer(d, s.buffer, bytes);
  }
  s.next_vaddr = d.next_vaddr;
  s.cycles = sys.machine.core(0).now();
  s.counters = sys.machine.core(0).counters();
  s.digest = sys.machine.StateDigest();
  return s;
}

void ExpectSameAllocation(const AllocState& a, const AllocState& b) {
  EXPECT_EQ(a.buffer.base, b.buffer.base);
  EXPECT_EQ(a.buffer.bytes, b.buffer.bytes);
  EXPECT_EQ(a.buffer.pages, b.buffer.pages);
  EXPECT_EQ(a.next_vaddr, b.next_vaddr);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(fuzz::DiffPerfCounters(a.counters, b.counters), "");
  EXPECT_EQ(a.digest, b.digest);
}

TEST(DomainManager, GrowingABufferInStepsEqualsOneAllocation) {
  for (const hw::MachineConfig& config :
       {hw::MachineConfig::Haswell(1), hw::MachineConfig::Sabre(1)}) {
    SCOPED_TRACE(config.name);
    // Past one leaf table's 512 pages: the growth needs a new table frame.
    constexpr std::size_t kBytes = 600 * hw::kPageSize;
    const AllocState once = Allocate(config, kBytes, {});
    ASSERT_EQ(once.buffer.pages.size(), kBytes / hw::kPageSize);
    EXPECT_EQ(once.next_vaddr, once.buffer.base + kBytes + hw::kPageSize)
        << "one guard page after the buffer";
    // Unaligned, repeated and table-crossing steps all land the same.
    const std::vector<std::size_t> steps = {100, 7 * hw::kPageSize, 7 * hw::kPageSize,
                                            511 * hw::kPageSize, 513 * hw::kPageSize};
    ExpectSameAllocation(Allocate(config, kBytes, steps), once);
    ExpectSameAllocation(Allocate(config, kBytes, {kBytes}), once);
  }
}

TEST(DomainManager, GrowBufferOnlyGrowsTheNewestAllocation) {
  test::ScenarioSystem sys(Scenario::kProtected);
  Domain& d = sys.manager.CreateDomain({.id = 1, .colours = sys.colours[0]});
  MappedBuffer older = sys.manager.AllocBuffer(d, 2 * hw::kPageSize);
  MappedBuffer newer = sys.manager.AllocBuffer(d, 0);
  EXPECT_THROW(sys.manager.GrowBuffer(d, older, 4 * hw::kPageSize), std::logic_error);
  EXPECT_THROW(sys.manager.GrowBuffer(d, older, 0), std::logic_error)
      << "shrinking an older buffer is no better";

  sys.manager.GrowBuffer(d, newer, 3 * hw::kPageSize);
  EXPECT_THROW(sys.manager.GrowBuffer(d, newer, 2 * hw::kPageSize), std::logic_error)
      << "a buffer cannot shrink";
  EXPECT_EQ(newer.bytes, 3 * hw::kPageSize) << "a refused call changes nothing";
  EXPECT_EQ(d.next_vaddr, newer.base + newer.bytes + hw::kPageSize);
  EXPECT_EQ(newer.base, older.base + older.bytes + hw::kPageSize);

  // A buffer of another domain is not this domain's newest allocation.
  Domain& other = sys.manager.CreateDomain({.id = 2, .colours = sys.colours[1]});
  EXPECT_THROW(sys.manager.GrowBuffer(other, newer, 4 * hw::kPageSize), std::logic_error);
}

TEST(DomainManager, SubdivideRejectsColoursOutsideParent) {
  test::BootedSystem sys(1, /*clone_support=*/true);
  DomainManager mgr(sys.kernel);
  auto colours = SplitColours(sys.machine.config(), 2);
  Domain& parent = mgr.CreateDomain({.id = 1, .colours = colours[0]});
  std::size_t foreign = *colours[1].begin();
  EXPECT_THROW(mgr.Subdivide(parent, 3, {foreign}), std::runtime_error);
}

TEST(DomainManager, DestroyRequiresCloneSupport) {
  test::BootedSystem sys(1, /*clone_support=*/false);
  DomainManager mgr(sys.kernel);
  Domain& d = mgr.CreateDomain({.id = 1});
  EXPECT_FALSE(mgr.DestroyDomainKernel(d).ok());
}

// --- flush-on-switch behaviour -------------------------------------------

// Runs a two-domain schedule until one domain switch completed, with the
// L1-D primed full of dirty lines just before the switch. Returns how many
// primed lines survived in the L1-D afterwards.
std::size_t PrimedLinesSurvivingSwitch(kernel::FlushMode mode) {
  hw::Machine machine(hw::MachineConfig::Haswell(1));
  kernel::KernelConfig kc = core::MakeKernelConfig(
      mode == kernel::FlushMode::kFull ? Scenario::kFullFlush : Scenario::kProtected,
      machine, 0.2);
  kc.flush_mode = mode;
  kc.pad_switches = false;
  kernel::Kernel kernel(machine, kc);
  DomainManager mgr(kernel);
  auto colours = SplitColours(machine.config(), 2);
  mgr.CreateDomain({.id = 1, .colours = colours[0]});
  mgr.CreateDomain({.id = 2, .colours = colours[1]});
  kernel.SetDomainSchedule(0, {1, 2});
  kernel.KickSchedule(0);

  const hw::MachineConfig& mc = machine.config();
  hw::SetAssociativeCache& l1d = machine.core(0).l1d();
  std::vector<hw::PAddr> primed;
  for (hw::PAddr p = 0; p < mc.l1d.size_bytes; p += mc.l1d.line_size) {
    l1d.Access(p, p, /*write=*/true);
    primed.push_back(p);
  }

  std::uint64_t before = kernel.domain_switches();
  for (int guard = 0; guard < 1'000'000 && kernel.domain_switches() == before; ++guard) {
    kernel.StepCore(0);
  }
  EXPECT_GT(kernel.domain_switches(), before) << "schedule never switched domains";

  std::size_t surviving = 0;
  for (hw::PAddr p : primed) {
    if (l1d.Contains(p, p)) {
      ++surviving;
    }
  }
  return surviving;
}

TEST(DomainSwitch, OnCoreFlushScrubsTheL1) {
  EXPECT_EQ(PrimedLinesSurvivingSwitch(kernel::FlushMode::kOnCore), 0u)
      << "time protection must leave no primed L1 line behind";
  EXPECT_EQ(PrimedLinesSurvivingSwitch(kernel::FlushMode::kFull), 0u);
}

TEST(DomainSwitch, NoFlushLeavesPrimedState) {
  // The unmitigated kernel is the experiment's control: most primed lines
  // survive the switch, which is exactly the leak the flush closes.
  std::size_t surviving = PrimedLinesSurvivingSwitch(kernel::FlushMode::kNone);
  hw::MachineConfig mc = hw::MachineConfig::Haswell(1);
  EXPECT_GT(surviving, mc.l1d.size_bytes / mc.l1d.line_size / 2)
      << "without a flush the raw kernel must leave the receiver-visible state";
}

TEST(DomainSwitch, OnCoreFlushScrubsTlbAndRecordsCost) {
  hw::Machine machine(hw::MachineConfig::Haswell(1));
  kernel::KernelConfig kc = MakeKernelConfig(Scenario::kProtected, machine, 0.2);
  kc.pad_switches = false;
  kernel::Kernel kernel(machine, kc);
  DomainManager mgr(kernel);
  auto colours = SplitColours(machine.config(), 2);
  mgr.CreateDomain({.id = 1, .colours = colours[0]});
  mgr.CreateDomain({.id = 2, .colours = colours[1]});
  kernel.SetDomainSchedule(0, {1, 2});
  kernel.KickSchedule(0);

  hw::Tlb& dtlb = machine.core(0).dtlb();
  for (std::uint64_t vpn = 0; vpn < 32; ++vpn) {
    dtlb.Insert(vpn, /*asid=*/7, /*global=*/false);
  }
  ASSERT_GT(dtlb.ValidCount(), 0u);

  std::uint64_t before = kernel.domain_switches();
  for (int guard = 0; guard < 1'000'000 && kernel.domain_switches() == before; ++guard) {
    kernel.StepCore(0);
  }
  ASSERT_GT(kernel.domain_switches(), before);
  // The kernel's own post-flush execution refills TLB entries, so test for
  // the receiver-relevant property: none of the *primed* translations
  // survived (kernel refills use kernel VPNs, far above ours).
  for (std::uint64_t vpn = 0; vpn < 32; ++vpn) {
    EXPECT_FALSE(dtlb.Lookup(vpn, 7)) << "vpn " << vpn << " survived the on-core flush";
  }
  EXPECT_GT(kernel.last_switch_cost(0), 0u);
}

}  // namespace
}  // namespace tp::core
