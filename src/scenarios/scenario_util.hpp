// Glue between the sweep grid axes and the simulator's factories: axis
// values map back to machine configs, scenario presets, splash kinds and
// factory-ready ExperimentOptions.
#ifndef TP_SCENARIOS_SCENARIO_UTIL_HPP_
#define TP_SCENARIOS_SCENARIO_UTIL_HPP_

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "attacks/setup_cache.hpp"
#include "attacks/splash_cost.hpp"
#include "core/time_protection.hpp"
#include "hw/machine.hpp"
#include "runner/quick.hpp"
#include "runner/sweep.hpp"
#include "workloads/splash.hpp"

namespace tp::scenarios {

// Canonical platform-axis values (double as the recorded cell-name prefix).
inline constexpr const char* kHaswell = "Haswell (x86)";
inline constexpr const char* kSabre = "Sabre (Arm)";

// Maps a GridSpec platform-axis value back to its machine config.
inline hw::MachineConfig PlatformConfig(const std::string& name, std::size_t cores = 1) {
  if (name == kHaswell) {
    return hw::MachineConfig::Haswell(cores);
  }
  if (name == kSabre) {
    return hw::MachineConfig::Sabre(cores);
  }
  throw std::invalid_argument("unknown platform axis value: " + name);
}

// Maps a GridSpec mode-axis value back to the scenario preset.
inline core::Scenario ScenarioByName(const std::string& name) {
  for (core::Scenario s : {core::Scenario::kRaw, core::Scenario::kColourReady,
                           core::Scenario::kFullFlush, core::Scenario::kProtected}) {
    if (name == core::ScenarioName(s)) {
      return s;
    }
  }
  throw std::invalid_argument("unknown mode axis value: " + name);
}

// Maps a GridSpec variant-axis value back to the Splash-2 benchmark.
inline workloads::SplashKind SplashKindByName(const std::string& name) {
  for (workloads::SplashKind kind : workloads::AllSplashKinds()) {
    if (name == workloads::SplashName(kind)) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown splash variant: " + name);
}

// ExperimentOptions pre-filled from a grid cell's axes; neutral axis values
// (timeslice 0) keep the factory defaults.
inline attacks::ExperimentOptions CellOptions(const runner::GridCell& cell) {
  attacks::ExperimentOptions opt;
  if (cell.timeslice_ms > 0.0) {
    opt.timeslice_ms = cell.timeslice_ms;
  }
  opt.colour_fraction = cell.colour_fraction;
  return opt;
}

// A channel's shard body from its seed-free `set_up(cell)` and its seeded
// `run(cell, setup, shard)`, which may use the set-up up. Each cell's
// set-up is built once, in the sweep engine's slot, and every shard runs
// on a clone (runner::CellSetup) while attacks::SetupSharingAllowed().
template <typename SetUp, typename Run>
runner::SweepEngine::CellShardFn ChannelShard(SetUp set_up, Run run) {
  return [set_up, run](const runner::GridCell& cell, const runner::Shard& shard) {
    attacks::ChannelSetup setup =
        runner::CellSetup(attacks::SetupSharingAllowed(), [&] { return set_up(cell); });
    return run(cell, setup, shard);
  };
}

// Runs the cells of a Splash cost grid as buffer ladders: the cells that
// differ only in their benchmark (the variant axis) share a set-up,
// `build(cell)`, grown through the benchmarks' working sets
// (attacks::RunBufferLadder); `run(setup, cell)` runs one cell on it. Each
// group is one task on `pool`, the Haswell groups (the largest buffers)
// claimed first. Returns one attacks::LadderCell per cell, in cell order.
template <typename Build, typename Run>
auto MapSplashLadders(const runner::ExperimentRunner& pool,
                      const std::vector<runner::GridCell>& cells, Build&& build, Run&& run) {
  std::vector<std::vector<std::size_t>> groups;  // positions in `cells`
  std::map<std::string, std::size_t> group_of;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    runner::GridCell key = cells[i];
    key.variant.clear();
    auto [it, fresh] = group_of.try_emplace(key.CoordKey(), groups.size());
    if (fresh) {
      groups.emplace_back();
    }
    groups[it->second].push_back(i);
  }
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_partition(order.begin(), order.end(), [&](std::size_t g) {
    return cells[groups[g].front()].platform == kHaswell;
  });

  auto ladders = pool.MapScheduled(groups.size(), order, [&](std::size_t g) {
    const std::vector<std::size_t>& members = groups[g];
    const runner::GridCell& first = cells[members.front()];
    std::vector<std::size_t> sizes;
    for (std::size_t i : members) {
      sizes.push_back(workloads::WorkingSetBytes(SplashKindByName(cells[i].variant),
                                                 PlatformConfig(cells[i].platform)));
    }
    auto build_group = [&] { return build(first); };
    auto run_cell = [&](attacks::SplashSetup& setup, std::size_t k) {
      return run(setup, cells[members[k]]);
    };
    return attacks::RunBufferLadder(sizes, build_group, run_cell);
  });
  std::vector<typename decltype(ladders)::value_type::value_type> out(cells.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t k = 0; k < groups[g].size(); ++k) {
      out[groups[g][k]] = std::move(ladders[g][k]);
    }
  }
  return out;
}

}  // namespace tp::scenarios

#endif  // TP_SCENARIOS_SCENARIO_UTIL_HPP_
