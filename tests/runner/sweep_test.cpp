// The grid sweep engine: cartesian expansion, coordinate-keyed seed
// streams, thread-count invariance of whole-grid results, and recording.
#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "attacks/channel_experiment.hpp"
#include "attacks/kernel_channel.hpp"
#include "attacks/setup_cache.hpp"
#include "faults/fault.hpp"
#include "mi/leakage_test.hpp"
#include "trajectory/trajectory.hpp"

namespace tp::runner {
namespace {

TEST(GridSpec, ExpandsCartesianProductInOrder) {
  GridSpec spec;
  spec.platforms = {"p0", "p1"};
  spec.timeslices_ms = {0.25, 1.0};
  spec.colour_fractions = {1.0, 0.5};
  spec.modes = {"raw", "protected"};
  std::vector<GridCell> cells = ExpandGrid(spec);
  ASSERT_EQ(cells.size(), spec.num_cells());
  ASSERT_EQ(cells.size(), 16u);
  EXPECT_EQ(cells.front().platform, "p0");
  EXPECT_EQ(cells.front().mode, "raw");
  EXPECT_EQ(cells.back().platform, "p1");
  EXPECT_EQ(cells.back().mode, "protected");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
  // All names and seeds distinct.
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const GridCell& c : cells) {
    names.insert(c.Name());
    seeds.insert(c.seed);
  }
  EXPECT_EQ(names.size(), cells.size());
  EXPECT_EQ(seeds.size(), cells.size());
}

TEST(GridSpec, NeutralAxesAreOmittedFromNames) {
  GridSpec spec;
  spec.platforms = {"Haswell (x86)"};
  spec.modes = {"raw"};
  std::vector<GridCell> cells = ExpandGrid(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].Name(), "Haswell (x86)/raw");

  spec.timeslices_ms = {0.25};
  spec.colour_fractions = {0.5};
  spec.variants = {"ocean"};
  cells = ExpandGrid(spec);
  EXPECT_EQ(cells[0].Name(), "Haswell (x86)/ocean/ts=0.25ms/cf=0.5/raw");
}

TEST(GridSpec, SeedsAreKeyedOnCoordinatesNotIndex) {
  GridSpec spec;
  spec.root_seed = 42;
  spec.platforms = {"p0"};
  spec.timeslices_ms = {1.0};
  spec.modes = {"raw", "protected"};
  std::vector<GridCell> before = ExpandGrid(spec);

  // Extending an axis must not reshuffle pre-existing cells' seeds.
  spec.timeslices_ms = {0.25, 1.0};
  spec.platforms = {"p0", "p1"};
  std::vector<GridCell> after = ExpandGrid(spec);
  for (const GridCell& b : before) {
    bool found = false;
    for (const GridCell& a : after) {
      if (a.CoordKey() == b.CoordKey()) {
        EXPECT_EQ(a.seed, b.seed) << b.CoordKey();
        found = true;
      }
    }
    EXPECT_TRUE(found) << b.CoordKey();
  }

  // A different root seed moves every stream.
  spec.root_seed = 43;
  std::vector<GridCell> reseeded = ExpandGrid(spec);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_NE(after[i].seed, reseeded[i].seed);
  }
}

// Synthetic deterministic experiment: observations derived purely from the
// shard seed, so any cross-thread nondeterminism in the engine shows up as
// a result mismatch.
mi::Observations SyntheticShard(const GridCell& cell, const Shard& shard) {
  mi::Observations obs;
  std::mt19937_64 rng(shard.seed);
  std::normal_distribution<double> noise(0.0, 0.3);
  for (std::size_t i = 0; i < shard.rounds; ++i) {
    int symbol = static_cast<int>(rng() % 4);
    double separation = cell.mode == "leaky" ? 5.0 : 0.0;
    obs.Add(symbol, separation * symbol + noise(rng));
  }
  return obs;
}

TEST(SweepEngine, GridResultsAreThreadCountInvariant) {
  GridSpec spec;
  spec.root_seed = 0x5EED;
  spec.rounds = 96;
  spec.platforms = {"p0", "p1"};
  spec.modes = {"leaky", "quiet"};
  mi::LeakageOptions lopt;
  lopt.shuffles = 20;

  ExperimentRunner pool1(1);
  ExperimentRunner pool4(4);
  std::vector<SweepCellResult> a =
      SweepEngine(pool1).RunChannelGrid(spec, SyntheticShard, lopt);
  std::vector<SweepCellResult> b =
      SweepEngine(pool4).RunChannelGrid(spec, SyntheticShard, lopt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell.Name(), b[i].cell.Name());
    ASSERT_EQ(a[i].observations.size(), b[i].observations.size());
    EXPECT_EQ(a[i].observations.inputs(), b[i].observations.inputs());
    EXPECT_EQ(a[i].observations.outputs(), b[i].observations.outputs());
    EXPECT_EQ(a[i].leakage.mi_bits, b[i].leakage.mi_bits) << a[i].cell.Name();
    EXPECT_EQ(a[i].leakage.m0_bits, b[i].leakage.m0_bits);
  }
  // And the synthetic channel behaves as designed.
  EXPECT_TRUE(a[0].leakage.leak);
  EXPECT_FALSE(a[1].leakage.leak);
}

TEST(SweepEngine, ClaimsEachCellsShardsTogetherInShardOrder) {
  // 150 rounds over 8 shards: 19 rounds for shards 0-5, 18 for 6-7. A
  // cell's shards run back to back, so few cells hold a set-up in their
  // slot (CellSetup) at once.
  GridSpec spec;
  spec.root_seed = 0xC1A1;
  spec.rounds = 150;
  spec.platforms = {"p0", "p1", "p2"};
  spec.modes = {"quiet"};
  std::vector<std::pair<std::string, std::size_t>> calls;
  auto shard_fn = [&calls](const GridCell& cell, const Shard& shard) {
    EXPECT_EQ(shard.count, 8u);
    calls.emplace_back(cell.Name(), shard.index);
    return SyntheticShard(cell, shard);
  };
  ExperimentRunner pool1(1);
  SweepEngine(pool1).RunChannelGrid(spec, shard_fn, {.shuffles = 4});
  const std::vector<GridCell> cells = ExpandGrid(spec);
  ASSERT_EQ(calls.size(), cells.size() * 8);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, cells[i / 8].Name()) << "call " << i;
    EXPECT_EQ(calls[i].second, i % 8) << "call " << i;
  }
}

TEST(SweepEngine, RealKernelChannelGridIsThreadCountInvariant) {
  // One tiny real-simulator cell: the acceptance check behind
  // TP_THREADS=1 vs nproc bit-identical recorded MI. Its shards run on
  // clones of one set-up from the cell's slot, and match shards that each
  // build their own.
  GridSpec spec;
  spec.root_seed = 0xF16'3;
  spec.rounds = 48;
  spec.platforms = {"Haswell (x86)"};
  spec.timeslices_ms = {0.25};
  spec.modes = {"raw"};
  auto shard_fn = [](bool share) {
    return [share](const GridCell& cell, const Shard& shard) {
      attacks::ChannelSetup setup = CellSetup(share, [&cell] {
        return attacks::SetUpKernelChannel(
            attacks::MakeExperiment(hw::MachineConfig::Haswell(1), core::Scenario::kRaw,
                                    {.timeslice_ms = cell.timeslice_ms,
                                     .colour_fraction = cell.colour_fraction}));
      });
      return attacks::RunKernelChannel(setup, shard.rounds, shard.seed);
    };
  };
  mi::LeakageOptions lopt;
  lopt.shuffles = 10;
  ExperimentRunner pool1(1);
  ExperimentRunner pool4(4);
  std::vector<SweepCellResult> a =
      SweepEngine(pool1).RunChannelGrid(spec, shard_fn(true), lopt);
  std::vector<SweepCellResult> b =
      SweepEngine(pool4).RunChannelGrid(spec, shard_fn(true), lopt);
  std::vector<SweepCellResult> fresh =
      SweepEngine(pool4).RunChannelGrid(spec, shard_fn(false), lopt);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(a[0].observations.inputs(), b[0].observations.inputs());
  EXPECT_EQ(a[0].observations.outputs(), b[0].observations.outputs());
  EXPECT_EQ(a[0].leakage.mi_bits, b[0].leakage.mi_bits);
  EXPECT_EQ(a[0].observations.inputs(), fresh[0].observations.inputs());
  EXPECT_EQ(a[0].observations.outputs(), fresh[0].observations.outputs());
}

// A stand-in set-up that counts builds and clones, and whose held copy
// (the one DetachTally marks) logs its release.
struct LoggedSetup {
  std::string cell;
  std::vector<std::string>* log = nullptr;
  std::atomic<int>* clones = nullptr;
  bool held = false;

  LoggedSetup Clone() const {
    if (clones != nullptr) {
      ++*clones;
    }
    return LoggedSetup{cell, log, clones, false};
  }
  void DetachTally() { held = true; }
  ~LoggedSetup() {
    if (held && log != nullptr) {
      log->push_back("release " + cell);
    }
  }
};

// The cells' shard bodies with a shared log (one thread only) of what the
// slots build and release and which shards run.
struct SlotLog {
  std::vector<std::string> events;

  // A shard body that takes its set-up from the cell slot, logs, then
  // runs `body`.
  template <typename Body>
  SweepEngine::CellShardFn Shards(Body body) {
    return [this, body](const GridCell& cell, const Shard& shard) {
      LoggedSetup setup = CellSetup(true, [&] {
        events.push_back("build " + cell.mode);
        return LoggedSetup{cell.mode, &events};
      });
      events.push_back("run " + cell.mode + " " + std::to_string(shard.index));
      return body(cell, shard);
    };
  }
  // Index of the first event equal to `event` (events.size() if none).
  std::size_t Find(const std::string& event) const {
    return static_cast<std::size_t>(std::find(events.begin(), events.end(), event) -
                                    events.begin());
  }
};

TEST(SweepEngine, CellSlotBuildsOncePerCellAtOneAndFourThreads) {
  GridSpec spec;
  spec.root_seed = 0x5107;
  spec.rounds = 128;  // 8 shards per cell
  spec.platforms = {"p0", "p1", "p2"};
  spec.modes = {"leaky", "quiet"};
  mi::LeakageOptions lopt;
  lopt.shuffles = 4;
  std::vector<SweepCellResult> reference;
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::atomic<int> builds{0};
    std::atomic<int> clones{0};
    std::atomic<int> wrong_cell{0};
    auto shard_fn = [&](const GridCell& cell, const Shard& shard) {
      LoggedSetup setup = CellSetup(true, [&] {
        ++builds;
        return LoggedSetup{cell.CoordKey(), nullptr, &clones};
      });
      if (setup.cell != cell.CoordKey()) {
        ++wrong_cell;
      }
      return SyntheticShard(cell, shard);
    };
    ExperimentRunner pool(threads);
    const SetupTally t0 = SetupTallySnapshot();
    std::vector<SweepCellResult> results =
        SweepEngine(pool).RunChannelGrid(spec, shard_fn, lopt);
    const SetupTally t1 = SetupTallySnapshot();
    EXPECT_EQ(builds.load(), 6);
    EXPECT_EQ(clones.load(), 48);
    EXPECT_EQ(wrong_cell.load(), 0);
    EXPECT_EQ(t1.built - t0.built, 6u);
    EXPECT_EQ(t1.cloned - t0.cloned, 48u);
    if (reference.empty()) {
      reference = results;
      continue;
    }
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].observations.outputs(), reference[i].observations.outputs());
    }
  }
}

TEST(SweepEngine, CellSlotIsReleasedAfterTheCellsLastShard) {
  GridSpec spec;
  spec.rounds = 32;  // 2 shards per cell
  spec.platforms = {"p0"};
  spec.modes = {"a", "b"};
  SlotLog log;
  ExperimentRunner pool(1);
  SweepEngine(pool).RunChannelGrid(spec, log.Shards(SyntheticShard), {.shuffles = 4});
  EXPECT_EQ(log.events, (std::vector<std::string>{"build a", "run a 0", "run a 1", "release a",
                                                  "build b", "run b 0", "run b 1",
                                                  "release b"}));
}

TEST(SweepEngine, CellSlotIsReleasedWhenACellFails) {
  GridSpec spec;
  spec.rounds = 128;  // 8 shards per cell
  spec.platforms = {"p0"};
  spec.modes = {"a", "b"};
  SlotLog log;
  ExperimentRunner pool(1);
  std::vector<SweepCellResult> results = SweepEngine(pool).RunChannelGrid(
      spec, log.Shards([](const GridCell& cell, const Shard& shard) {
        if (cell.mode == "a" && shard.index == 2) {
          throw std::runtime_error("shard 2 fails");
        }
        return SyntheticShard(cell, shard);
      }),
      {.shuffles = 4});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, "failed");
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(log.Find("run a 3"), log.events.size()) << "the failed cell stops";
  EXPECT_LT(log.Find("release a"), log.Find("build b"));
}

TEST(SweepEngine, CellSlotIsReleasedWhenACellTimesOut) {
  GridSpec spec;
  spec.rounds = 128;  // 8 shards per cell
  spec.platforms = {"p0"};
  spec.modes = {"a", "b"};
  SlotLog log;
  ExperimentRunner pool(1);
  SweepOptions options;
  options.cell_budget_ns = 5'000'000;  // 5 ms; cell a's first shard sleeps past it
  std::vector<SweepCellResult> results = SweepEngine(pool).RunChannelGrid(
      spec, log.Shards([](const GridCell& cell, const Shard& shard) {
        if (cell.mode == "a") {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return SyntheticShard(cell, shard);
      }),
      {.shuffles = 4}, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, "timeout");
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(log.Find("run a 1"), log.events.size());
  EXPECT_LT(log.Find("release a"), log.Find("build b"));
}

TEST(SweepEngine, MapCellsDeliversCellsInGridOrder) {
  GridSpec spec;
  spec.platforms = {"p0", "p1"};
  spec.variants = {"a", "b", "c"};
  ExperimentRunner pool(4);
  std::vector<std::string> names =
      SweepEngine(pool).MapCells(spec, [](const GridCell& cell) { return cell.Name(); });
  std::vector<GridCell> cells = ExpandGrid(spec);
  ASSERT_EQ(names.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(names[i], cells[i].Name());
  }
}

TEST(SweepEngine, ThrowingCellIsIsolatedAndOthersComplete) {
  faults::InstallFaultPlan({.site = "harness.cell_throw", .param = "quiet"});
  GridSpec spec;
  spec.rounds = 64;
  spec.platforms = {"p0"};
  spec.modes = {"leaky", "quiet"};
  ExperimentRunner pool(2);
  std::vector<SweepCellResult> results =
      SweepEngine(pool).RunChannelGrid(spec, SyntheticShard);
  faults::ClearFaultPlan();
  ASSERT_EQ(results.size(), 2u);
  const SweepCellResult* leaky = &results[0];
  const SweepCellResult* quiet = &results[1];
  ASSERT_EQ(leaky->cell.mode, "leaky");
  ASSERT_EQ(quiet->cell.mode, "quiet");
  // The healthy cell still produced a full result...
  EXPECT_TRUE(leaky->ok());
  EXPECT_GT(leaky->observations.size(), 0u);
  // ...while the poisoned one carries the failure instead of observations.
  EXPECT_FALSE(quiet->ok());
  EXPECT_EQ(quiet->status, "failed");
  EXPECT_NE(quiet->error.find("harness.cell_throw"), std::string::npos);
  EXPECT_EQ(quiet->observations.size(), 0u);
  EXPECT_FALSE(quiet->leakage.leak);
  EXPECT_EQ(quiet->leakage.samples, 0u);
}

TEST(SweepEngine, StalledCellTripsTheWallTimeBudget) {
  faults::InstallFaultPlan({.site = "harness.cell_stall", .param = "quiet"});
  GridSpec spec;
  spec.rounds = 64;
  spec.platforms = {"p0"};
  spec.modes = {"leaky", "quiet"};
  ExperimentRunner pool(2);
  SweepOptions options;
  options.cell_budget_ns = 40'000'000;  // 40 ms; the stall sleeps past it
  std::vector<SweepCellResult> results =
      SweepEngine(pool).RunChannelGrid(spec, SyntheticShard, {}, options);
  faults::ClearFaultPlan();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status, "timeout");
  EXPECT_NE(results[1].error.find("budget"), std::string::npos);
}

TEST(SweepEngine, SkipCellsRerunsOnlyTheRestBitIdentically) {
  GridSpec spec;
  spec.root_seed = 0x5EED;
  spec.rounds = 96;
  spec.platforms = {"p0"};
  spec.modes = {"leaky", "quiet"};
  mi::LeakageOptions lopt;
  lopt.shuffles = 20;
  ExperimentRunner pool(2);
  std::vector<SweepCellResult> full =
      SweepEngine(pool).RunChannelGrid(spec, SyntheticShard, lopt);
  ASSERT_EQ(full.size(), 2u);

  std::set<std::string> skip = {full[0].cell.Name()};
  SweepOptions options;
  options.skip_cells = &skip;
  std::vector<SweepCellResult> rest =
      SweepEngine(pool).RunChannelGrid(spec, SyntheticShard, lopt, options);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].cell.Name(), full[1].cell.Name());
  // The resume contract: a partial rerun reproduces the uninterrupted
  // run's numbers exactly (coordinate-keyed seeds, not index-keyed).
  EXPECT_EQ(rest[0].observations.inputs(), full[1].observations.inputs());
  EXPECT_EQ(rest[0].observations.outputs(), full[1].observations.outputs());
  EXPECT_EQ(rest[0].leakage.mi_bits, full[1].leakage.mi_bits);
}

// Adaptive variant of SyntheticShard: the quiet mode emits a constant
// output (a perfectly padded channel), so its CI collapses to [0, 0] and
// the sequential stop can fire at the first checkpoint.
mi::Observations AdaptiveSyntheticShard(const GridCell& cell, const Shard& shard) {
  mi::Observations obs;
  std::mt19937_64 rng(shard.seed);
  std::normal_distribution<double> noise(0.0, 0.3);
  for (std::size_t i = 0; i < shard.rounds; ++i) {
    int symbol = static_cast<int>(rng() % 4);
    if (cell.mode == "leaky") {
      obs.Add(symbol, 5.0 * symbol + noise(rng));
    } else {
      noise(rng);  // keep the stream position identical across modes
      obs.Add(symbol, 0.0);
    }
  }
  return obs;
}

TEST(SweepEngine, AdaptiveGridStopsEarlyAndKeepsVerdicts) {
  GridSpec spec;
  spec.root_seed = 0x5EED;
  spec.rounds = 128;  // 8 shards of 16
  spec.platforms = {"p0"};
  spec.modes = {"leaky", "quiet"};
  mi::LeakageOptions lopt;
  lopt.shuffles = 20;
  SweepOptions options;
  options.adaptive.enabled = true;
  ExperimentRunner pool(2);
  std::vector<SweepCellResult> results =
      SweepEngine(pool).RunChannelGrid(spec, AdaptiveSyntheticShard, lopt, options);
  ASSERT_EQ(results.size(), 2u);
  const SweepCellResult& leaky = results[0];
  const SweepCellResult& quiet = results[1];
  ASSERT_EQ(leaky.cell.mode, "leaky");
  ASSERT_EQ(quiet.cell.mode, "quiet");
  for (const SweepCellResult& r : results) {
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.adaptive);
    EXPECT_EQ(r.rounds, 128u);  // the budget is still recorded
    EXPECT_TRUE(r.stopped_early) << r.cell.Name();
    EXPECT_LT(r.rounds_run, r.rounds) << r.cell.Name();
    EXPECT_GE(r.rounds_run, 32u);  // never before min_checkpoint_shards
    EXPECT_FALSE(std::isnan(r.mi_ci_low));
    EXPECT_FALSE(std::isnan(r.mi_ci_high));
    EXPECT_LE(r.mi_ci_low, r.mi_ci_high);
    EXPECT_EQ(r.significance, 0.05);
    EXPECT_EQ(r.observations.size(), r.rounds_run);
  }
  // Early stopping must preserve the verdicts the fixed sweep would reach.
  EXPECT_TRUE(leaky.leakage.leak);
  EXPECT_GT(leaky.mi_ci_low, leaky.leakage.m0_bits);
  EXPECT_FALSE(quiet.leakage.leak);
  EXPECT_LT(quiet.mi_ci_high, 0.001);
}

TEST(SweepEngine, CellSlotIsReleasedWhenAnAdaptiveCellStopsEarly) {
  // The quiet cell stops at the first checkpoint (after two shards); the
  // noise cell, independent noise whose interval never resolves, runs on.
  GridSpec spec;
  spec.root_seed = 0x5EED;
  spec.rounds = 128;  // 8 shards of 16
  spec.platforms = {"p0"};
  spec.modes = {"quiet", "noise"};
  SlotLog log;
  SweepOptions options;
  options.adaptive.enabled = true;
  ExperimentRunner pool(1);
  std::vector<SweepCellResult> results = SweepEngine(pool).RunChannelGrid(
      spec, log.Shards([](const GridCell& cell, const Shard& shard) {
        return cell.mode == "quiet" ? AdaptiveSyntheticShard(cell, shard)
                                    : SyntheticShard(cell, shard);
      }),
      {.shuffles = 20}, options);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].stopped_early);
  ASSERT_FALSE(results[1].stopped_early);
  EXPECT_EQ(log.Find("run quiet 2"), log.events.size());
  EXPECT_LT(log.Find("release quiet"), log.Find("run noise 2"));
}

TEST(SweepEngine, AdaptiveGridIsThreadCountInvariant) {
  GridSpec spec;
  spec.root_seed = 0x5EED;
  spec.rounds = 128;
  spec.platforms = {"p0", "p1"};
  spec.modes = {"leaky", "quiet"};
  mi::LeakageOptions lopt;
  lopt.shuffles = 20;
  SweepOptions options;
  options.adaptive.enabled = true;
  ExperimentRunner pool1(1);
  ExperimentRunner pool4(4);
  std::vector<SweepCellResult> a =
      SweepEngine(pool1).RunChannelGrid(spec, AdaptiveSyntheticShard, lopt, options);
  std::vector<SweepCellResult> b =
      SweepEngine(pool4).RunChannelGrid(spec, AdaptiveSyntheticShard, lopt, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell.Name(), b[i].cell.Name());
    EXPECT_EQ(a[i].rounds_run, b[i].rounds_run) << a[i].cell.Name();
    EXPECT_EQ(a[i].stopped_early, b[i].stopped_early);
    EXPECT_EQ(a[i].observations.inputs(), b[i].observations.inputs());
    EXPECT_EQ(a[i].observations.outputs(), b[i].observations.outputs());
    EXPECT_EQ(a[i].leakage.mi_bits, b[i].leakage.mi_bits) << a[i].cell.Name();
    EXPECT_EQ(a[i].leakage.m0_bits, b[i].leakage.m0_bits);
    EXPECT_EQ(a[i].mi_ci_low, b[i].mi_ci_low) << a[i].cell.Name();
    EXPECT_EQ(a[i].mi_ci_high, b[i].mi_ci_high);
  }
}

TEST(SweepEngine, FixedModeCarriesNoAdaptiveMetadata) {
  GridSpec spec;
  spec.root_seed = 0x5EED;
  spec.rounds = 96;
  spec.platforms = {"p0"};
  spec.modes = {"leaky", "quiet"};
  ExperimentRunner pool(2);
  std::vector<SweepCellResult> results =
      SweepEngine(pool).RunChannelGrid(spec, SyntheticShard);
  for (const SweepCellResult& r : results) {
    EXPECT_FALSE(r.adaptive);
    EXPECT_FALSE(r.stopped_early);
    EXPECT_EQ(r.rounds_run, r.rounds);
    EXPECT_TRUE(std::isnan(r.mi_ci_low));
    EXPECT_TRUE(std::isnan(r.mi_ci_high));
  }
}

TEST(SweepEngine, AdaptiveFullBudgetCellMatchesFixedSweep) {
  // A cell that never resolves early (noisy but sub-threshold MI) must run
  // its whole budget and land on the fixed path's exact numbers.
  GridSpec spec;
  spec.root_seed = 0x5EED;
  spec.rounds = 96;
  spec.platforms = {"p0"};
  spec.modes = {"quiet"};  // SyntheticShard quiet: pure noise, nonzero MI estimate
  mi::LeakageOptions lopt;
  lopt.shuffles = 20;
  ExperimentRunner pool(2);
  std::vector<SweepCellResult> fixed =
      SweepEngine(pool).RunChannelGrid(spec, SyntheticShard, lopt);
  SweepOptions options;
  options.adaptive.enabled = true;
  std::vector<SweepCellResult> adaptive =
      SweepEngine(pool).RunChannelGrid(spec, SyntheticShard, lopt, options);
  ASSERT_EQ(fixed.size(), 1u);
  ASSERT_EQ(adaptive.size(), 1u);
  if (!adaptive[0].stopped_early) {
    EXPECT_EQ(adaptive[0].rounds_run, fixed[0].rounds);
    EXPECT_EQ(adaptive[0].observations.inputs(), fixed[0].observations.inputs());
    EXPECT_EQ(adaptive[0].observations.outputs(), fixed[0].observations.outputs());
    EXPECT_EQ(adaptive[0].leakage.mi_bits, fixed[0].leakage.mi_bits);
    EXPECT_EQ(adaptive[0].leakage.m0_bits, fixed[0].leakage.m0_bits);
  }
  // Either way the adaptive run records an interval around its estimate.
  EXPECT_TRUE(adaptive[0].adaptive);
  EXPECT_FALSE(std::isnan(adaptive[0].mi_ci_high));
}

TEST(RecordSweep, AdaptiveCellRoundTripsStoppingMetadata) {
  std::string path = ::testing::TempDir() + "sweep_adaptive_record_test.json";
  std::remove(path.c_str());
  setenv("TP_BENCH_JSON", path.c_str(), 1);
  setenv("TP_BENCH_LABEL", "adaptive-test", 1);
  {
    GridSpec spec;
    spec.root_seed = 0x5EED;
    spec.rounds = 128;
    spec.platforms = {"p0"};
    spec.modes = {"leaky", "quiet"};
    mi::LeakageOptions lopt;
    lopt.shuffles = 20;
    SweepOptions options;
    options.adaptive.enabled = true;
    ExperimentRunner pool(2);
    std::vector<SweepCellResult> results =
        SweepEngine(pool).RunChannelGrid(spec, AdaptiveSyntheticShard, lopt, options);
    bench::Recorder recorder("sweep_test");
    RecordSweep(recorder, pool, results);
  }
  unsetenv("TP_BENCH_JSON");
  unsetenv("TP_BENCH_LABEL");
  std::string error;
  std::optional<trajectory::Trajectory> t = trajectory::LoadTrajectory(path, &error);
  ASSERT_TRUE(t.has_value()) << error;
  std::size_t adaptive_cells = 0;
  for (const trajectory::TrajectoryRecord& r : t->records) {
    if (r.cell == "total") {
      continue;
    }
    ++adaptive_cells;
    EXPECT_TRUE(r.is_adaptive()) << r.cell;
    EXPECT_EQ(r.stopped_early, 1);
    EXPECT_EQ(r.rounds_budget, 128u);
    EXPECT_LT(r.rounds_run, r.rounds_budget);
    EXPECT_EQ(r.executed_rounds(), r.rounds_run);
    EXPECT_TRUE(r.has_ci()) << r.cell;
    EXPECT_EQ(r.significance, 0.05);
    EXPECT_EQ(r.ci_method, "bootstrap");
  }
  EXPECT_EQ(adaptive_cells, 2u);
  std::remove(path.c_str());
}

TEST(RecordSweep, FailedCellRoundTripsThroughTheTrajectory) {
  std::string path = ::testing::TempDir() + "sweep_failed_cell_test.json";
  std::remove(path.c_str());
  setenv("TP_BENCH_JSON", path.c_str(), 1);
  setenv("TP_BENCH_LABEL", "crash-test", 1);
  faults::InstallFaultPlan({.site = "harness.cell_throw", .param = "quiet"});
  {
    GridSpec spec;
    spec.rounds = 64;
    spec.platforms = {"p0"};
    spec.modes = {"leaky", "quiet"};
    ExperimentRunner pool(2);
    std::vector<SweepCellResult> results =
        SweepEngine(pool).RunChannelGrid(spec, SyntheticShard);
    bench::Recorder recorder("sweep_test");
    RecordSweep(recorder, pool, results);
  }
  faults::ClearFaultPlan();
  unsetenv("TP_BENCH_JSON");
  unsetenv("TP_BENCH_LABEL");

  std::string error;
  std::optional<trajectory::Trajectory> t = trajectory::LoadTrajectory(path, &error);
  ASSERT_TRUE(t.has_value()) << error;
  const trajectory::TrajectoryRecord* failed = nullptr;
  const trajectory::TrajectoryRecord* healthy = nullptr;
  for (const trajectory::TrajectoryRecord& r : t->records) {
    if (r.cell == "p0/quiet") {
      failed = &r;
    } else if (r.cell == "p0/leaky") {
      healthy = &r;
    }
  }
  ASSERT_NE(failed, nullptr);
  ASSERT_NE(healthy, nullptr);
  EXPECT_TRUE(healthy->cell_ok());
  EXPECT_TRUE(healthy->has_mi());
  EXPECT_FALSE(failed->cell_ok());
  EXPECT_EQ(failed->cell_status, "failed");
  EXPECT_NE(failed->cell_error.find("harness.cell_throw"), std::string::npos);
  EXPECT_FALSE(failed->has_mi());
  std::remove(path.c_str());
}

TEST(RecordSweep, WritesOneRecordPerCell) {
  std::string path = ::testing::TempDir() + "sweep_record_test.json";
  std::remove(path.c_str());
  setenv("TP_BENCH_JSON", path.c_str(), 1);
  setenv("TP_BENCH_LABEL", "sweep-test", 1);
  {
    GridSpec spec;
    spec.rounds = 64;
    spec.platforms = {"p0"};
    spec.modes = {"leaky", "quiet"};
    ExperimentRunner pool(2);
    std::vector<SweepCellResult> results =
        SweepEngine(pool).RunChannelGrid(spec, SyntheticShard);
    bench::Recorder recorder("sweep_test");
    RecordSweep(recorder, pool, results);
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  EXPECT_NE(text.find("\"cell\": \"p0/leaky\""), std::string::npos);
  EXPECT_NE(text.find("\"cell\": \"p0/quiet\""), std::string::npos);
  EXPECT_NE(text.find("\"mi_bits\""), std::string::npos);
  unsetenv("TP_BENCH_JSON");
  unsetenv("TP_BENCH_LABEL");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tp::runner
