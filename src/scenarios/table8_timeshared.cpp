// Table 8: performance impact of full time protection on Splash-2 when
// time-sharing the core with an idle domain, with and without switch
// padding — the effective CPU-bandwidth reduction from the increased
// context-switch latency.
//
// Paper: x86 mean 2.76% (no pad) / 3.38% (pad); Arm 0.75% / 1.09%. Max on
// ocean (x86) and raytrace (Arm); padding adds only a few tenths of a
// percent on top.
//
// Swept beyond the paper's point (50% colours per domain): colour fraction
// {1.0, 0.5} of the split — the cost of protection must stay bounded when
// each domain's cache allocation halves.
#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "attacks/splash_cost.hpp"
#include "core/time_protection.hpp"
#include "runner/quick.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"
#include "scenarios/summary.hpp"
#include "workloads/splash.hpp"

namespace tp::scenarios {
namespace {

struct PlatformSummary {
  double worst = -1e9;
  double best = 1e9;
  std::string worst_name;
  std::string best_name;
  double geo = 1.0;
  std::size_t n = 0;

  void Fold(const std::string& name, double over) {
    if (over > worst) {
      worst = over;
      worst_name = name;
    }
    if (over < best) {
      best = over;
      best_name = name;
    }
    geo *= 1.0 + over;
    ++n;
  }
  double Mean() const {
    return n == 0 ? 0.0 : std::pow(geo, 1.0 / static_cast<double>(n)) - 1.0;
  }
};

void Run(RunContext& ctx) {
  std::size_t slices = bench::Scaled(24, 8);

  std::vector<std::string> kinds;
  for (workloads::SplashKind kind : workloads::AllSplashKinds()) {
    kinds.emplace_back(workloads::SplashName(kind));
  }

  // Raw baselines: one per platform x benchmark (colours unused).
  runner::GridSpec base_grid;
  base_grid.platforms = {kHaswell, kSabre};
  base_grid.variants = kinds;
  base_grid.modes = {"raw"};

  // Protected runs: pad off/on at full and halved colour allocation.
  runner::GridSpec prot_grid = base_grid;
  prot_grid.modes = {"nopad", "protected"};
  prot_grid.colour_fractions = {1.0, 0.5};

  std::vector<runner::GridCell> base_cells = runner::ExpandGrid(base_grid);
  std::vector<runner::GridCell> prot_cells = runner::ExpandGrid(prot_grid);
  // The benchmarks of one (platform, mode, colour fraction) differ only in
  // their working set: each such group of either grid runs as one buffer
  // ladder.
  std::vector<runner::GridCell> cells = base_cells;
  cells.insert(cells.end(), prot_cells.begin(), prot_cells.end());
  auto build = [](const runner::GridCell& cell) {
    return attacks::SetUpSplashTimeShared(
        PlatformConfig(cell.platform),
        cell.mode == "raw" ? core::Scenario::kRaw : core::Scenario::kProtected,
        cell.mode == "protected", cell.colour_fraction);
  };
  auto run_cell = [slices](attacks::SplashSetup& setup, const runner::GridCell& cell) {
    return attacks::RunSplashTimeShared(setup, SplashKindByName(cell.variant), slices);
  };
  auto out = MapSplashLadders(ctx.pool, cells, build, run_cell);
  const std::span base_out = std::span(out).first(base_cells.size());
  const std::span prot_out = std::span(out).subspan(base_cells.size());

  // Raw accesses per platform/benchmark, for the overhead ratios.
  std::map<std::string, std::uint64_t> baseline;
  for (std::size_t i = 0; i < base_cells.size(); ++i) {
    baseline[base_cells[i].platform + "/" + base_cells[i].variant] = base_out[i].value;
    bench::BenchRecord rec{
        .cell = base_cells[i].Name(),
        .rounds = slices,
        .wall_ns = base_out[i].wall_ns,
        .threads = ctx.pool.threads(),
        .metrics = {{"accesses", static_cast<double>(base_out[i].value)}}};
    runner::ApplyContract(rec, base_out[i].contract);
    ctx.recorder.Add(std::move(rec));
  }

  // platform -> mode/fraction summary tables keyed like "nopad cf=1".
  std::map<std::string, std::map<std::string, PlatformSummary>> summaries;
  for (std::size_t i = 0; i < prot_cells.size(); ++i) {
    const runner::GridCell& cell = prot_cells[i];
    std::uint64_t base = baseline.at(cell.platform + "/" + cell.variant);
    double over = static_cast<double>(base) / static_cast<double>(prot_out[i].value) - 1.0;
    bench::BenchRecord rec{
        .cell = cell.Name(),
        .rounds = slices,
        .wall_ns = prot_out[i].wall_ns,
        .threads = ctx.pool.threads(),
        .metrics = {{"overhead", over},
                    {"accesses", static_cast<double>(prot_out[i].value)}}};
    runner::ApplyContract(rec, prot_out[i].contract);
    ctx.recorder.Add(std::move(rec));
    summaries[cell.platform][cell.mode + Fmt(" cf=%.3g", cell.colour_fraction)].Fold(
        cell.variant, over);
  }

  if (ctx.verbose) {
    for (const auto& [platform, by_config] : summaries) {
      std::printf("\n--- %s ---\n", platform.c_str());
      for (const auto& [config, s] : by_config) {
        std::printf("%-16s max %+.2f%% (%s), min %+.2f%% (%s), mean %+.2f%%\n",
                    config.c_str(), s.worst * 100.0, s.worst_name.c_str(), s.best * 100.0,
                    s.best_name.c_str(), s.Mean() * 100.0);
      }
    }
    std::printf(
        "\nShape checks: single-digit mean overhead; padding adds only a small\n"
        "increment on top of flushing + colouring, and halving the colour\n"
        "allocation keeps the cost bounded.\n");
  }
}

const RegisterChannel registrar{{
    .name = "table8_timeshared",
    .title = "Table 8: time-shared Splash-2 under full time protection",
    .paper = "50% colours: x86 mean 2.76% (no pad) / 3.38% (pad); Arm 0.75% / 1.09%",
    .kind = "cost",
    .contract = "protected and nopad cells clean; raw dirty by design",
    .run = Run,
}};

}  // namespace
}  // namespace tp::scenarios
