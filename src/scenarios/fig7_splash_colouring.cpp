// Figure 7: Splash-2 slowdowns from cache colouring and kernel cloning,
// relative to the baseline kernel with an unpartitioned cache, as a
// platform x benchmark x {base, clone} x colour-fraction grid.
//
// Paper shapes: sub-1% (Arm) / sub-2% (x86) slowdowns for most benchmarks
// at 50% colours; raytrace (large working set) suffers most (6.5% at 50%
// on Arm, dropping to 2.5% at 75%); running on a *cloned* kernel adds
// almost nothing on top of colouring.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "attacks/splash_cost.hpp"
#include "runner/quick.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"
#include "scenarios/summary.hpp"
#include "workloads/splash.hpp"

namespace tp::scenarios {
namespace {

void Run(RunContext& ctx) {
  std::uint64_t accesses = bench::QuickMode() ? 60'000 : 320'000;
  std::vector<std::string> kinds;
  for (workloads::SplashKind kind : workloads::AllSplashKinds()) {
    kinds.emplace_back(workloads::SplashName(kind));
  }

  runner::GridSpec grid;
  grid.platforms = {kHaswell, kSabre};
  grid.variants = kinds;
  grid.modes = {"base", "clone"};
  grid.colour_fractions = {1.0, 0.75, 0.5};
  std::vector<runner::GridCell> cells = runner::ExpandGrid(grid);

  // Every (benchmark, config) run — including the 100% baselines — is an
  // independent simulation. The benchmarks of one (platform, mode, colour
  // fraction) differ only in their working set, so each such group runs
  // as one buffer ladder, timing each cell.
  auto build = [](const runner::GridCell& cell) {
    return attacks::SetUpSplashSolo(PlatformConfig(cell.platform), cell.mode == "clone",
                                    cell.colour_fraction);
  };
  auto run_cell = [accesses](attacks::SplashSetup& setup, const runner::GridCell& cell) {
    return attacks::RunSplashSolo(setup, SplashKindByName(cell.variant), accesses);
  };
  auto timed = MapSplashLadders(ctx.pool, cells, build, run_cell);
  std::vector<double> cycles;
  cycles.reserve(timed.size());
  for (const auto& t : timed) {
    cycles.push_back(t.value);
  }

  // Baseline (base mode, all colours) cycles per platform/benchmark.
  std::map<std::string, double> base;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].mode == "base" && cells[i].colour_fraction == 1.0) {
      base[cells[i].platform + "/" + cells[i].variant] = cycles[i];
    }
  }

  // Record every cell; collect slowdowns for the per-platform tables.
  std::map<std::string, std::map<std::string, double>> slowdowns;  // platform -> col -> geo
  std::map<std::string, std::map<std::string, std::string>> rows;  // platform/bench -> col
  auto col_name = [](const runner::GridCell& cell) {
    return Fmt("%.0f", cell.colour_fraction * 100.0) + "% " + cell.mode;
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const runner::GridCell& cell = cells[i];
    double b = base.at(cell.platform + "/" + cell.variant);
    double slowdown = cycles[i] / b - 1.0;
    bench::BenchRecord rec;
    rec.cell = cell.Name();
    rec.rounds = accesses;
    rec.wall_ns = timed[i].wall_ns;
    rec.threads = ctx.pool.threads();
    rec.metrics["cycles"] = cycles[i];
    rec.metrics["slowdown"] = slowdown;
    runner::ApplyContract(rec, timed[i].contract);
    ctx.recorder.Add(std::move(rec));
    if (cell.mode == "base" && cell.colour_fraction == 1.0) {
      continue;  // the baseline itself
    }
    std::string col = col_name(cell);
    rows[cell.platform + "/" + cell.variant][col] = Fmt("%+.2f%%", slowdown * 100.0);
    auto& geo = slowdowns[cell.platform][col];
    geo = (geo == 0.0 ? 1.0 : geo) * (slowdown + 1.0);
  }

  if (ctx.verbose) {
    const std::vector<std::string> cols = {"75% base", "50% base", "100% clone", "75% clone",
                                           "50% clone"};
    for (const std::string& platform : grid.platforms) {
      std::printf("\n--- %s ---\n", platform.c_str());
      Table t({"benchmark", cols[0], cols[1], cols[2], cols[3], cols[4]});
      for (const std::string& kind : kinds) {
        std::vector<std::string> row{kind};
        for (const std::string& col : cols) {
          row.push_back(rows[platform + "/" + kind][col]);
        }
        t.AddRow(std::move(row));
      }
      std::vector<std::string> mean_row{"GEOMEAN"};
      for (const std::string& col : cols) {
        double g = std::pow(slowdowns[platform][col],
                            1.0 / static_cast<double>(kinds.size())) -
                   1.0;
        mean_row.push_back(Fmt("%+.2f%%", g * 100.0));
      }
      t.AddRow(std::move(mean_row));
      t.Print();
    }
    std::printf(
        "\nShape checks: slowdown grows as the colour share shrinks; the\n"
        "large-working-set benchmarks (raytrace, fft, ocean) suffer most; the\n"
        "cloned-kernel columns track the base columns closely.\n");
  }
}

const RegisterChannel registrar{{
    .name = "fig7_splash_colouring",
    .title = "Figure 7: Splash-2 slowdown from colouring and cloned kernels",
    .paper = "most benchmarks <2% even at 50% colours; raytrace worst (6.5% at "
             "50% Arm, 2.5% at 75%); cloning adds ~0 on top",
    .kind = "cost",
    .contract = "all cells clean (full protection throughout)",
    .run = Run,
}};

}  // namespace
}  // namespace tp::scenarios
