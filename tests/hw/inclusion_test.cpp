// The inclusive LLC: every valid line in a core's L1-I, L1-D and private L2
// is also in the LLC, because an LLC eviction back-invalidates the victim
// from every core. The one exception is a core stranded by another core's
// whole-LLC flush (see fuzz::InclusionChecker).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "fuzz/oracles.hpp"
#include "hw/core.hpp"
#include "hw/machine.hpp"
#include "support/test_support.hpp"

namespace tp::hw {
namespace {

using fuzz::InclusionChecker;
using test::FlatTranslationContext;
using test::InstallFlatContext;

// Random multi-core traffic under constant eviction pressure: a 64 KiB LLC
// beneath private caches several times its size, sequential runs over a
// 2 MiB window (they train the stream prefetcher, whose fills evict too),
// and a small hot set each core keeps resident privately while its LLC
// copies age. Every core maps the same frames, so lines are shared. Every
// flush that can empty or strand a private cache is interleaved.
void FuzzInclusion(MachineConfig config, std::uint64_t seed) {
  config.llc.size_bytes = 64 * 1024;
  Machine machine(config);
  std::vector<FlatTranslationContext> contexts;
  contexts.reserve(machine.num_cores());
  for (std::size_t k = 0; k < machine.num_cores(); ++k) {
    contexts.emplace_back(static_cast<Asid>(k + 1));
    InstallFlatContext(machine.core(k), contexts.back());
  }
  InclusionChecker checker(machine);
  std::mt19937_64 rng(seed);
  std::vector<VAddr> batch;
  for (int step = 0; step < 4000; ++step) {
    Core& core = machine.core(rng() % machine.num_cores());
    const AccessKind kind = static_cast<AccessKind>(rng() % 3);
    const std::uint64_t pick = rng() % 1000;
    const bool flushed_llc = pick >= 950 && pick < 960;
    if (pick < 500) {
      batch.clear();
      const VAddr base = (rng() % (2 * 1024 * 1024)) & ~VAddr{63};
      for (VAddr i = 0; i < 24; ++i) {
        batch.push_back(base + i * 64);
      }
      core.AccessBatch(batch, kind);
    } else if (pick < 800) {
      core.Access((rng() % 64) * 512, kind);  // hot set
    } else if (pick < 950) {
      core.Access(rng() % (2 * 1024 * 1024), kind);
    } else if (pick < 960) {
      core.FullCacheFlush(/*include_llc=*/true);
    } else if (pick < 970) {
      core.FullCacheFlush(/*include_llc=*/false);
    } else if (pick < 980) {
      core.FlushPrivateL2();
    } else if (pick < 990) {
      core.InvalidateL1I();
    } else if (machine.config().has_architected_l1_flush) {
      core.ArchFlushL1D();
    }
    ASSERT_EQ(checker.Check(flushed_llc), "") << "step " << step << " on core " << core.id();
  }
  EXPECT_GT(machine.back_invalidate_count(), 10000u) << "too little eviction pressure";
}

TEST(Inclusion, HoldsUnderRandomMultiCoreAccessAndFlushes) {
  FuzzInclusion(MachineConfig::Haswell(4), 1);
  FuzzInclusion(MachineConfig::Sabre(4), 2);
  MachineConfig no_l2 = MachineConfig::Haswell(3);
  no_l2.has_private_l2 = false;
  FuzzInclusion(no_l2, 3);
}

TEST(Inclusion, WholeLlcFlushStrandsOtherCoresUntilTheyAreEmpty) {
  Machine machine(MachineConfig::Haswell(3));
  FlatTranslationContext ctx(1);
  for (std::size_t k = 0; k < 3; ++k) {
    InstallFlatContext(machine.core(k), ctx);
  }
  InclusionChecker checker(machine);
  machine.core(1).Access(0x4000, AccessKind::kRead);  // core 2 stays empty
  EXPECT_EQ(checker.Check(false), "");
  machine.core(0).FullCacheFlush(/*include_llc=*/true);
  EXPECT_EQ(checker.Check(true), "");
  EXPECT_EQ(checker.stranded(), 0b010u) << "only a non-empty other core is stranded";

  machine.core(1).InvalidateL1I();
  EXPECT_EQ(checker.Check(false), "");
  EXPECT_EQ(checker.stranded(), 0b010u) << "L1-D and L2 still hold the line";
  machine.core(1).FullCacheFlush(/*include_llc=*/false);
  EXPECT_EQ(checker.Check(false), "");
  EXPECT_EQ(checker.stranded(), 0u);
}

// The checker is not vacuous: a private line whose LLC copy vanished
// without a back-invalidation is reported.
TEST(Inclusion, CheckerReportsALineMissingFromTheLlc) {
  Machine machine(MachineConfig::Haswell(2));
  FlatTranslationContext ctx(1);
  InstallFlatContext(machine.core(0), ctx);
  InstallFlatContext(machine.core(1), ctx);
  InclusionChecker checker(machine);
  const VAddr line = 0x4000;
  const PAddr paddr = ctx.Translate(line)->paddr;
  machine.core(1).Access(line, AccessKind::kRead);
  ASSERT_EQ(checker.Check(false), "");
  machine.llc().InvalidateLine(paddr, paddr);
  EXPECT_NE(checker.Check(false).find("core 1"), std::string::npos);
}

// A stranded line re-enters the LLC through another core; its eviction
// must still reach the stranded copy.
TEST(Inclusion, EvictionReachesStrandedCopy) {
  Machine machine(MachineConfig::Sabre(2));
  FlatTranslationContext ctx(1);
  InstallFlatContext(machine.core(0), ctx);
  InstallFlatContext(machine.core(1), ctx);
  const VAddr line = 0x4000;
  const PAddr paddr = ctx.Translate(line)->paddr;
  machine.core(1).Access(line, AccessKind::kRead);
  machine.core(0).FullCacheFlush(/*include_llc=*/true);
  machine.core(0).Access(line, AccessKind::kRead);  // LLC copy, mask = {core 0}

  // Evict it from the LLC with same-set lines from core 0 only.
  const SetAssociativeCache& llc = machine.llc();
  const std::size_t way_span = llc.geometry().WaySpanBytes();
  for (std::size_t i = 1; i <= llc.geometry().associativity; ++i) {
    machine.core(0).Access(line + i * way_span, AccessKind::kRead);
  }
  ASSERT_FALSE(llc.Contains(paddr, paddr));
  EXPECT_FALSE(machine.core(1).l1d().Contains(line, paddr))
      << "the stranded L1-D copy survived its LLC eviction";
}

// An eviction caused by one core drops the private copy of a sharer.
TEST(Inclusion, EvictionReachesEverySharer) {
  Machine machine(MachineConfig::Haswell(2));
  FlatTranslationContext ctx(1);
  InstallFlatContext(machine.core(0), ctx);
  InstallFlatContext(machine.core(1), ctx);
  const VAddr line = 0x4000;
  const PAddr paddr = ctx.Translate(line)->paddr;
  machine.core(1).Access(line, AccessKind::kRead);
  machine.core(0).Access(line, AccessKind::kRead);

  const SetAssociativeCache& llc = machine.llc();
  const std::size_t set_span = llc.geometry().WaySpanBytes();
  const std::size_t slice = llc.SliceOf(paddr);
  std::size_t evicting = 0;
  for (std::size_t i = 1; evicting <= llc.geometry().associativity; ++i) {
    const PAddr candidate = paddr + i * set_span;
    if (llc.SliceOf(candidate) == slice) {
      machine.core(0).Access(line + i * set_span, AccessKind::kRead);
      ++evicting;
    }
  }
  ASSERT_FALSE(llc.Contains(paddr, paddr));
  EXPECT_FALSE(machine.core(1).l1d().Contains(line, paddr));
}

}  // namespace
}  // namespace tp::hw
