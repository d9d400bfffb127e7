// Same-page translation reuse in the batch loops: an op on the same page and
// I/D side as the previous op of a batch counts a first-level TLB hit and
// reuses the previous frame instead of running the full translation path.
// Every batch entry point (AccessBatch over vaddrs, AccessBatchLive and the
// MemOp batch) must stay bit-identical to per-op Access dispatch — cycles,
// every perf counter, per-structure TLB and cache tallies, and the whole
// machine state digest — including where the shortcut must stand down
// (taint tracking on, memo.stale armed).
#include <gtest/gtest.h>

#include <vector>

#include "faults/fault.hpp"
#include "hw/core.hpp"
#include "hw/machine.hpp"
#include "hw/taint.hpp"
#include "support/test_support.hpp"

namespace tp::hw {
namespace {

using test::FlatTranslationContext;
using test::InstallFlatContext;

struct Snapshot {
  Cycles cycles = 0;
  Cycles returned = 0;  // sum of the batch/Access return values
  std::uint64_t digest = 0;
  PerfCounters counters;
  std::uint64_t tlb[3][2] = {};    // itlb dtlb l2tlb x hits misses
  std::uint64_t cache[3][2] = {};  // l1i l1d llc x hits misses
};

Snapshot Take(Machine& machine, Cycles returned) {
  Core& core = machine.core(0);
  Snapshot s;
  s.cycles = core.now();
  s.returned = returned;
  s.digest = machine.StateDigest();
  s.counters = core.counters();
  Tlb* tlbs[3] = {&core.itlb(), &core.dtlb(), &core.l2tlb()};
  for (int i = 0; i < 3; ++i) {
    s.tlb[i][0] = tlbs[i]->hits();
    s.tlb[i][1] = tlbs[i]->misses();
  }
  SetAssociativeCache* caches[3] = {&core.l1i(), &core.l1d(), &machine.llc()};
  for (int i = 0; i < 3; ++i) {
    s.cache[i][0] = caches[i]->hits();
    s.cache[i][1] = caches[i]->misses();
  }
  return s;
}

void ExpectSame(const Snapshot& a, const Snapshot& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.returned, b.returned);
  EXPECT_EQ(a.digest, b.digest) << "different machine state";
  const PerfCounters& p = a.counters;
  const PerfCounters& q = b.counters;
  EXPECT_EQ(p.l1d_misses, q.l1d_misses);
  EXPECT_EQ(p.l1i_misses, q.l1i_misses);
  EXPECT_EQ(p.l2_misses, q.l2_misses);
  EXPECT_EQ(p.llc_misses, q.llc_misses);
  EXPECT_EQ(p.tlb_misses, q.tlb_misses);
  EXPECT_EQ(p.page_walks, q.page_walks);
  EXPECT_EQ(p.reads, q.reads);
  EXPECT_EQ(p.writes, q.writes);
  EXPECT_EQ(p.fetches, q.fetches);
  static constexpr const char* kTlbs[3] = {"itlb", "dtlb", "l2tlb"};
  static constexpr const char* kCaches[3] = {"l1i", "l1d", "llc"};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.tlb[i][0], b.tlb[i][0]) << kTlbs[i] << " hits";
    EXPECT_EQ(a.tlb[i][1], b.tlb[i][1]) << kTlbs[i] << " misses";
    EXPECT_EQ(a.cache[i][0], b.cache[i][0]) << kCaches[i] << " hits";
    EXPECT_EQ(a.cache[i][1], b.cache[i][1]) << kCaches[i] << " misses";
  }
}

enum class Dispatch { kBatch, kLive, kPerOp };

// A vaddr run that starts mid-page, crosses several page boundaries, re-walks
// lines at sub-line stride, and jumps back to an earlier page.
std::vector<VAddr> PageCrossingRun() {
  std::vector<VAddr> vas;
  for (VAddr va = 0x3F80; va < 0x7040; va += 64) {
    vas.push_back(va);
  }
  for (VAddr va = 0x9000; va < 0x9100; va += 8) {
    vas.push_back(va);
  }
  vas.push_back(0x4000);
  vas.push_back(0x4040);
  vas.push_back(0x9000);
  return vas;
}

Snapshot RunVaddrs(const MachineConfig& config, AccessKind kind, Dispatch dispatch, int rounds) {
  Machine machine(config);
  FlatTranslationContext ctx(1);
  InstallFlatContext(machine.core(0), ctx);
  Core& core = machine.core(0);
  const std::vector<VAddr> run = PageCrossingRun();
  Cycles returned = 0;
  for (int round = 0; round < rounds; ++round) {
    switch (dispatch) {
      case Dispatch::kBatch:
        returned += core.AccessBatch(run, kind);
        break;
      case Dispatch::kLive:
        returned += core.AccessBatchLive(run, kind);
        break;
      case Dispatch::kPerOp:
        for (VAddr va : run) {
          returned += core.Access(va, kind);
        }
        break;
    }
    // Evict the run's TLB entries between rounds so every round walks.
    core.FlushTlbAll();
  }
  return Take(machine, returned);
}

void ExpectVaddrRunsMatch(const MachineConfig& config) {
  for (AccessKind kind : {AccessKind::kRead, AccessKind::kWrite, AccessKind::kFetch}) {
    const Snapshot per_op = RunVaddrs(config, kind, Dispatch::kPerOp, 3);
    ExpectSame(RunVaddrs(config, kind, Dispatch::kBatch, 3), per_op, "AccessBatch");
    ExpectSame(RunVaddrs(config, kind, Dispatch::kLive, 3), per_op, "AccessBatchLive");
  }
}

TEST(BatchTranslation, PageCrossingRunsMatchDispatch) {
  ExpectVaddrRunsMatch(MachineConfig::Haswell(1));
  ExpectVaddrRunsMatch(MachineConfig::Sabre(1));
}

// Consecutive ops on one page that alternate I/D kinds (each side has its
// own first-level TLB, so a side switch must take the full path), ops that
// alternate user and kernel halves (separate contexts and memos), and runs
// of one kind on one page (where the shortcut fires).
std::vector<MemOp> MixedOps() {
  std::vector<MemOp> ops;
  const AccessKind kinds[3] = {AccessKind::kRead, AccessKind::kFetch, AccessKind::kWrite};
  for (int i = 0; i < 48; ++i) {
    ops.push_back({0x5000 + static_cast<VAddr>(i) * 64, kinds[i % 3]});
  }
  for (int i = 0; i < 64; ++i) {
    ops.push_back({0x6000 + static_cast<VAddr>(i) * 64, kinds[i % 3]});
    ops.push_back({KernelVaddrFor(0x300000 + static_cast<PAddr>(i) * 64), kinds[(i + 1) % 3]});
  }
  for (int i = 0; i < 32; ++i) {
    ops.push_back({0x7000 + static_cast<VAddr>(i) * 64, AccessKind::kRead});
  }
  for (int i = 0; i < 32; ++i) {
    ops.push_back({KernelVaddrFor(0x301000 + static_cast<PAddr>(i) * 64), AccessKind::kFetch});
    ops.push_back({KernelVaddrFor(0x301000 + static_cast<PAddr>(i) * 64), AccessKind::kFetch});
  }
  return ops;
}

Snapshot RunMemOps(const MachineConfig& config, bool kernel_global, bool batched) {
  Machine machine(config);
  FlatTranslationContext ctx(1);
  InstallFlatContext(machine.core(0), ctx, kernel_global);
  Core& core = machine.core(0);
  const std::vector<MemOp> ops = MixedOps();
  Cycles returned = 0;
  for (int round = 0; round < 3; ++round) {
    if (batched) {
      returned += core.AccessBatch(ops);
    } else {
      for (const MemOp& op : ops) {
        returned += core.Access(op.va, op.kind);
      }
    }
    core.FlushTlbNonGlobal();
  }
  return Take(machine, returned);
}

TEST(BatchTranslation, MixedKindAndHalfMemOpBatchesMatchDispatch) {
  for (const MachineConfig& config : {MachineConfig::Haswell(1), MachineConfig::Sabre(1)}) {
    for (bool kernel_global : {true, false}) {
      ExpectSame(RunMemOps(config, kernel_global, true), RunMemOps(config, kernel_global, false),
                 kernel_global ? "global kernel" : "per-ASID kernel");
    }
  }
}

TEST(BatchTranslation, TaintTrackingKeepsTheFullPath) {
  const bool saved = TaintTrackingEnabled();
  SetTaintTrackingEnabled(true);
  for (const MachineConfig& config : {MachineConfig::Haswell(1), MachineConfig::Sabre(1)}) {
    ExpectVaddrRunsMatch(config);
    ExpectSame(RunMemOps(config, true, true), RunMemOps(config, true, false), "MemOp");
  }
  SetTaintTrackingEnabled(saved);
}

// memo.stale keeps the translation memo across context switches and, on
// one seeded cross-context lookup, returns the stale frame without
// refreshing the memo — so the next op on that page would look up (and
// count an eligible event) again. Reusing the stale frame for the rest of
// the page would diverge from per-op dispatch; the batch must not.
Snapshot RunStaleMemo(bool armed, Dispatch dispatch) {
  if (armed) {
    faults::InstallFaultPlan(faults::FaultPlan{"memo.stale", "", 11});
  }
  Machine machine(MachineConfig::Haswell(1));
  if (armed) {
    faults::ClearFaultPlan();
  }
  FlatTranslationContext a(1);
  FlatTranslationContext b(2, FlatTranslationContext::Options{.user_offset = 0x900000});
  Core& core = machine.core(0);
  InstallFlatContext(core, a);
  std::vector<VAddr> page;
  for (VAddr va = 0x8000; va < 0x9000; va += 64) {
    page.push_back(va);
  }
  Cycles returned = 0;
  for (int round = 0; round < 40; ++round) {
    core.SetUserContext(round % 2 == 0 ? &b : &a);
    // Cold caches: a stale frame breaks the page's sequential miss stream,
    // which shows in the cycle count.
    core.FullCacheFlush();
    if (dispatch == Dispatch::kPerOp) {
      for (VAddr va : page) {
        returned += core.Access(va, AccessKind::kWrite);
      }
    } else {
      returned += core.AccessBatch(page, AccessKind::kWrite);
    }
  }
  return Take(machine, returned);
}

TEST(BatchTranslation, ArmedMemoStaleKeepsTheFullPath) {
  const Snapshot per_op = RunStaleMemo(true, Dispatch::kPerOp);
  ExpectSame(RunStaleMemo(true, Dispatch::kBatch), per_op, "memo.stale armed");
  // The site did fire within the run: the stale frame left its mark.
  EXPECT_NE(per_op.cycles, RunStaleMemo(false, Dispatch::kPerOp).cycles);
}

}  // namespace
}  // namespace tp::hw
