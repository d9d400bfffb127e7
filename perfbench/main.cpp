// perfbench — the repository benchmark.
//
// Runs one named workload (a set of registered scenario specs, quick grid,
// one host thread) serially through the scenarios' public entry points for
// about --seconds seconds, checks every simulated output and prints the
// metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": <cells>, "failed": <failed cells>,
//    "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}
// --trace 0 reports the end-to-end metrics (untraced passes); --trace 1
// pairs each untraced pass with a traced one and reports the per-layer
// metrics. Times are normalised to a reference host speed (hostspeed.hpp).
// README.md defines every metric and workload.
//
//   perfbench --workload probe|switch|splash [--seed N] [--seconds S] [--trace 0|1]
//
// Run from the repository root: the committed BENCH_results.json is the
// reference, and scratch files go under .bench_build/perfbench-out.
// Exit codes: 0 all outputs correct; 1 some output wrong (the result line
// says which counts); 2 bad usage or a set-up error (no result line).
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "hostspeed.hpp"
#include "hw/core.hpp"
#include "mi/leakage_test.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "runner/recorder.hpp"
#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "scenarios/driver.hpp"
#include "scenarios/scenario.hpp"
#include "trace.hpp"
#include "trajectory/trajectory.hpp"
#include "workloads.hpp"

namespace {

using perfbench::CellRecords;
using tp::scenarios::ChannelSpec;

constexpr const char* kUsage =
    "usage: perfbench --workload probe|switch|splash [--seed N] [--seconds S] "
    "[--trace 0|1]\n";
constexpr const char* kReferenceFile = "BENCH_results.json";
constexpr const char* kOutDir = ".bench_build/perfbench-out";
constexpr int kSetupRepsPerPass = 20;
constexpr int kCalibrationPeriodMs = 50;

struct Args {
  const perfbench::Workload* workload = nullptr;
  std::uint64_t seed = perfbench::kDefaultSeed;
  int seconds = 10;
  bool trace = false;
};

// A whole decimal number within [lo, hi].
bool ParseNumber(const std::string& text, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t* out) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return *out >= lo && *out <= hi;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n%s", arg.c_str(), kUsage);
      return std::nullopt;
    }
    const std::string value = argv[i + 1];
    std::uint64_t number = 0;
    bool ok = true;
    if (arg == "--workload") {
      args.workload = perfbench::FindWorkload(value);
      ok = args.workload != nullptr;
    } else if (arg == "--seed") {
      ok = ParseNumber(value, 0, UINT64_MAX, &args.seed);
    } else if (arg == "--seconds") {
      ok = ParseNumber(value, 1, 600, &number);
      args.seconds = static_cast<int>(number);
    } else if (arg == "--trace") {
      ok = ParseNumber(value, 0, 1, &number);
      args.trace = number == 1;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n%s", arg.c_str(), kUsage);
      return std::nullopt;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad value '%s' for %s\n%s", value.c_str(), arg.c_str(),
                   kUsage);
      return std::nullopt;
    }
  }
  if (args.workload == nullptr) {
    std::fprintf(stderr, "perfbench: --workload is required\n%s", kUsage);
    return std::nullopt;
  }
  return args;
}

// Every knob that could change what a workload simulates or where it
// records is fixed here, whatever the caller's environment holds.
void PinEnvironment(const std::string& record_path) {
  setenv("TP_QUICK", "1", 1);
  setenv("TP_THREADS", "1", 1);
  for (const char* name : {"TP_TAINT", "TP_ADAPTIVE", "TP_ADAPTIVE_SIGNIFICANCE", "TP_INJECT",
                           "TP_NO_REPLAY", "TP_CELL_BUDGET_MS"}) {
    unsetenv(name);
  }
  setenv("TP_BENCH_JSON", record_path.c_str(), 1);
  setenv("TP_BENCH_LABEL", "perfbench", 1);
}

// What one pass runs and what its outputs must equal.
struct Plan {
  std::vector<const ChannelSpec*> specs;
  std::map<std::string, std::vector<tp::runner::GridSpec>> grids;  // channel specs only
  CellRecords expected;
  std::string reference_label;
  std::size_t channel_cells = 0;
};

// Registry lookup, reference load and grid expansion. `load_ms` receives
// the LoadTrajectory time alone.
std::optional<Plan> SetUp(const perfbench::Workload& workload, std::uint64_t seed,
                          double* load_ms, std::string* error) {
  Plan plan;
  plan.specs = tp::scenarios::SelectSpecs(tp::scenarios::ChannelRegistry::Global(),
                                          workload.specs, error);
  if (plan.specs.empty()) {
    return std::nullopt;
  }
  const std::uint64_t t0 = perfbench::NowNs();
  std::optional<tp::trajectory::Trajectory> trajectory =
      tp::trajectory::LoadTrajectory(kReferenceFile, error);
  *load_ms = static_cast<double>(perfbench::NowNs() - t0) / 1e6;
  if (!trajectory) {
    return std::nullopt;
  }
  plan.reference_label = perfbench::NewestQuickLabel(*trajectory);
  if (plan.reference_label.empty()) {
    *error = std::string(kReferenceFile) + " holds no quick-grid label";
    return std::nullopt;
  }
  // The committed outputs apply wherever the inputs are the committed ones:
  // cost specs keep fixed seeds, channel grids only at the default seed.
  std::vector<std::string> referenced;
  for (const ChannelSpec* spec : plan.specs) {
    if (!spec->is_channel() || seed == perfbench::kDefaultSeed) {
      referenced.push_back(spec->name);
    }
    if (spec->is_channel()) {
      std::vector<tp::runner::GridSpec>& grids = plan.grids[spec->name];
      grids = spec->grids();
      for (tp::runner::GridSpec& grid : grids) {
        grid.root_seed = perfbench::MixRootSeed(grid.root_seed, seed);
        plan.channel_cells += tp::runner::ExpandGrid(grid).size();
      }
    }
  }
  std::optional<CellRecords> expected =
      perfbench::ReferenceCells(*trajectory, plan.reference_label, referenced, error);
  if (!expected) {
    return std::nullopt;
  }
  plan.expected = std::move(*expected);
  return plan;
}

struct Pass {
  double wall_s = 0.0;    // host seconds of work, calibrations left out
  double norm_s = 0.0;    // the same work at the reference host speed
  double region_s = 0.0;  // host seconds of the timed regions, calibrations in
  std::string spec_times;  // each spec's normalised seconds, for the log
  tp::hw::SimTally work;
  CellRecords cells;
  perfbench::CheckResult check;
  // Traced passes only.
  std::uint64_t shards = 0;
  std::uint64_t mi_samples = 0;
  std::size_t mi_mismatches = 0;
  perfbench::Trace trace;
};

// Runs every spec of the plan once. With `traced`, shard calls are wrapped
// in spans and every returned channel cell's leakage test is re-run and
// compared with the sweep's result.
void RunPass(const Plan& plan, const std::string& workload, const std::string& record_path,
             bool traced, Pass& pass) {
  std::filesystem::remove(record_path);
  perfbench::Trace* trace = traced ? &pass.trace : nullptr;
  const tp::runner::ExperimentRunner pool(1);
  tp::runner::SweepEngine engine(pool);
  const tp::runner::SweepOptions sweep;
  // Each spec is one timed region, with a calibration just outside each end.
  auto time_region = [&pass](const std::string& spec, std::uint64_t t0) {
    const std::uint64_t t1 = perfbench::NowNs();
    perfbench::Calibrate();
    const perfbench::Normalized work = perfbench::MeasureRegion(t0, t1);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "=%.3f", work.normalized_s);
    pass.spec_times += " " + spec + buf;
    pass.wall_s += work.raw_s;
    pass.norm_s += work.normalized_s;
    pass.region_s += static_cast<double>(t1 - t0) / 1e9;
  };
  const tp::hw::SimTally before = tp::hw::SimTallySnapshot();
  {
    perfbench::ScopedSpan root(trace, "workload", workload);
    for (const ChannelSpec* spec : plan.specs) {
      // Built and flushed outside the timed region: recording is not
      // simulation work.
      tp::bench::Recorder recorder(spec->name);
      perfbench::Calibrate();
      const std::uint64_t t0 = perfbench::NowNs();
      perfbench::ScopedSpan spec_span(trace, "scenarios." + spec->name, workload, root.index());
      if (!spec->is_channel()) {
        tp::scenarios::RunContext ctx{pool, engine, recorder, false};
        spec->run(ctx);
        time_region(spec->name, t0);
        continue;
      }
      for (const tp::runner::GridSpec& grid : plan.grids.at(spec->name)) {
        std::vector<tp::runner::SweepCellResult> results;
        {
          perfbench::ScopedSpan grid_span(trace, "runner.grid", spec->name, spec_span.index());
          tp::runner::SweepEngine::CellShardFn fn = spec->cell_shard;
          if (traced) {
            fn = [&, parent = grid_span.index()](const tp::runner::GridCell& cell,
                                                  const tp::runner::Shard& shard) {
              perfbench::ScopedSpan span(trace, "attacks.shard", cell.Name(), parent);
              ++pass.shards;
              return spec->cell_shard(cell, shard);
            };
          }
          results = engine.RunChannelGrid(grid, fn, spec->leak_options, sweep);
        }
        if (traced) {
          for (const tp::runner::SweepCellResult& r : results) {
            if (!r.ok()) {
              continue;
            }
            perfbench::ScopedSpan span(trace, "mi.leakage", r.cell.Name(), spec_span.index());
            const tp::mi::LeakageResult again =
                tp::mi::TestLeakage(r.observations, spec->leak_options);
            pass.mi_samples += again.samples;
            if (again.mi_bits != r.leakage.mi_bits || again.m0_bits != r.leakage.m0_bits ||
                again.samples != r.leakage.samples || again.leak != r.leakage.leak) {
              ++pass.mi_mismatches;
              std::printf("perfbench: mi re-run differs from the sweep in %s / %s\n",
                          spec->name.c_str(), r.cell.Name().c_str());
            }
          }
        }
        tp::runner::RecordSweep(recorder, pool, results);
      }
      time_region(spec->name, t0);
    }
  }
  const tp::hw::SimTally after = tp::hw::SimTallySnapshot();
  pass.work = {after.accesses - before.accesses, after.branches - before.branches};

  std::string error;
  std::optional<tp::trajectory::Trajectory> recorded =
      tp::trajectory::LoadTrajectory(record_path, &error);
  if (recorded) {
    pass.cells = perfbench::IndexCells(*recorded);
  } else {
    std::printf("perfbench: cannot read this pass's records: %s\n", error.c_str());
  }
}

bool IsTime(const std::string& unit) {
  return unit == "s" || unit == "ms" || unit == "us" || unit == "ns";
}

double PeakRssMb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// The per-layer metrics of one traced pass (probes and set-up excluded).
std::vector<perfbench::Metric> LayerMetrics(const Pass& pass) {
  const perfbench::Trace& trace = pass.trace;
  std::vector<perfbench::Metric> out;
  const double shard_s = trace.TotalSeconds("attacks.shard");
  const double mi_s = trace.TotalSeconds("mi.leakage");
  const double accesses = static_cast<double>(pass.work.accesses);
  out.push_back({"attacks.shard_s", shard_s, "s"});
  out.push_back({"attacks.shards", static_cast<double>(pass.shards), "count"});
  out.push_back({"attacks.ns_per_access",
                 pass.shards > 0 && accesses > 0 ? shard_s * 1e9 / accesses : 0.0, "ns"});
  out.push_back({"mi.leakage_s", mi_s, "s"});
  out.push_back({"mi.samples", static_cast<double>(pass.mi_samples), "count"});
  out.push_back({"mi.us_per_sample",
                 pass.mi_samples > 0 ? mi_s * 1e6 / static_cast<double>(pass.mi_samples) : 0.0,
                 "us"});
  const bool has_grids = trace.TotalSeconds("runner.grid") > 0.0;
  out.push_back({"runner.self_s", has_grids ? trace.SelfSeconds("runner.grid") - mi_s : 0.0,
                 "s"});
  for (const std::string& spec : perfbench::AllWorkloadSpecs()) {
    out.push_back({"scenarios." + spec + ".s", trace.TotalSeconds("scenarios." + spec), "s"});
  }
  std::vector<double> cell_ms;
  for (const auto& [key, record] : pass.cells) {
    cell_ms.push_back(static_cast<double>(record.wall_ns) / 1e6);
  }
  const perfbench::Summary cells = perfbench::Summarize(cell_ms);
  out.push_back({"scenarios.cells", static_cast<double>(cells.n), "count"});
  out.push_back({"scenarios.cell_ms_p50", cells.p50, "ms"});
  out.push_back({"scenarios.cell_ms_tail", cells.tail, "ms"});
  out.push_back({"scenarios.cell_tail_pct", cells.tail_pct, "%"});
  out.push_back({"scenarios.cell_ms_max", cells.max, "ms"});
  out.push_back({"hw.sim_accesses", accesses, "count"});
  out.push_back({"hw.sim_branches", static_cast<double>(pass.work.branches), "count"});
  return out;
}

std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Calibrates on this thread for the rest of the run; stopped before exit.
  // Started first so that filling the kernel's buffer is not set-up time.
  perfbench::StartCalibrationTimer(kCalibrationPeriodMs);
  struct StopTimer {
    ~StopTimer() { perfbench::StopCalibrationTimer(); }
  } stop_timer;
  const std::uint64_t start_ns = perfbench::NowNs();
  std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    return 2;
  }
  const perfbench::Workload& workload = *args->workload;
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", kOutDir, ec.message().c_str());
    return 2;
  }
  const std::string record_path = std::string(kOutDir) + "/" + workload.name + "-" +
                                  std::to_string(::getpid()) + ".records.json";
  PinEnvironment(record_path);

  // Set-up, repeated before every untraced pass so that its median samples
  // the whole run; the first repetition also covers start-up work in main.
  std::vector<double> setup_s;       // normalised
  std::vector<double> setup_wall_s;  // host seconds
  std::vector<double> load_ms;       // normalised
  std::optional<Plan> plan;
  auto set_up = [&](bool first) {
    // Each repetition starts where the calibration after the last one ended.
    std::uint64_t t0 = start_ns;
    if (!first) {
      perfbench::Calibrate();
      t0 = perfbench::NowNs();
    }
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      std::string error;
      double ms = 0.0;
      plan = SetUp(workload, args->seed, &ms, &error);
      if (!plan) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
        return false;
      }
      const std::uint64_t t1 = perfbench::NowNs();
      perfbench::Calibrate();
      const perfbench::Normalized work = perfbench::MeasureRegion(t0, t1);
      setup_s.push_back(work.normalized_s);
      setup_wall_s.push_back(work.raw_s);
      load_ms.push_back(ms * work.normalized_s * 1e9 / static_cast<double>(t1 - t0));
      t0 = perfbench::NowNs();
    }
    return true;
  };
  if (!set_up(true)) {
    return 2;
  }
  std::printf("perfbench: workload %s, seed %llu, %zu specs, %zu channel cells, reference '%s'\n",
              workload.name.c_str(), static_cast<unsigned long long>(args->seed),
              plan->specs.size(), plan->channel_cells, plan->reference_label.c_str());

  // Specs without committed outputs for these inputs are checked against
  // the first pass instead: every later pass must repeat it exactly.
  CellRecords expected = plan->expected;
  std::set<std::string> unreferenced;
  for (const ChannelSpec* spec : plan->specs) {
    auto it = expected.lower_bound({spec->name, ""});
    if (it == expected.end() || it->first.first != spec->name) {
      unreferenced.insert(spec->name);
    }
  }

  std::deque<Pass> untraced;  // Pass holds a Trace, which does not move
  std::deque<Pass> traced;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool repeatable = true;
  auto run = [&](bool with_trace) {
    std::deque<Pass>& passes = with_trace ? traced : untraced;
    Pass& pass = passes.emplace_back();
    RunPass(*plan, workload.name, record_path, with_trace, pass);
    pass.check = perfbench::CheckCells(pass.cells, expected, workload.specs);
    if (pass.cells.empty()) {
      ++pass.check.failed;
      pass.check.messages.push_back("the pass recorded no cells");
    }
    attempted += pass.check.cells;
    failed += pass.check.failed;
    for (const std::string& message : pass.check.messages) {
      std::printf("perfbench: FAILED %s\n", message.c_str());
    }
    for (const auto& [key, record] : pass.cells) {
      if (unreferenced.count(key.first) > 0) {
        expected.try_emplace(key, record);
      }
    }
    const Pass& first = untraced.front();
    if (pass.work.accesses != first.work.accesses || pass.work.branches != first.work.branches ||
        (with_trace && (pass.shards != traced.front().shards ||
                        pass.mi_samples != traced.front().mi_samples))) {
      repeatable = false;
      std::printf("perfbench: simulated work differs between passes\n");
    }
    std::printf(
        "perfbench: %s pass %zu: %.3f s normalised (%.3f s host), %zu cells, %zu failed, "
        "%llu accesses;%s\n",
        with_trace ? "traced" : "untraced", passes.size(), pass.norm_s, pass.wall_s,
        pass.check.cells, pass.check.failed, static_cast<unsigned long long>(pass.work.accesses),
        pass.spec_times.c_str());
    std::fflush(stdout);
  };

  // Whole passes until the next one would overrun --seconds; at least two
  // untraced passes, or one untraced/traced pair, so that every run checks
  // that the simulated work repeats.
  const std::uint64_t measure_start = perfbench::NowNs();
  const double budget_s = static_cast<double>(args->seconds);
  const int min_rounds = args->trace ? 1 : 2;
  for (int round = 1;; ++round) {
    if (round > 1 && !set_up(false)) {
      return 2;
    }
    run(false);
    if (args->trace) {
      run(true);
    }
    const double elapsed = static_cast<double>(perfbench::NowNs() - measure_start) / 1e9;
    if (round >= min_rounds && elapsed + elapsed / round > budget_s) {
      break;
    }
  }

  std::vector<perfbench::Metric> metrics;
  std::size_t mi_mismatches = 0;
  std::vector<double> untraced_norm;
  std::vector<double> untraced_wall;
  std::vector<double> slowdown;
  std::vector<double> rate;
  for (const Pass& p : untraced) {
    untraced_norm.push_back(p.norm_s);
    untraced_wall.push_back(p.wall_s);
    slowdown.push_back(p.wall_s / p.norm_s);
    rate.push_back(static_cast<double>(p.work.accesses) / p.norm_s / 1e6);
  }
  if (!args->trace) {
    metrics.push_back({"pass_s", perfbench::Median(untraced_norm), "s"});
    metrics.push_back({"sim_maccess_per_s", perfbench::Median(rate), "Maccess/s"});
    metrics.push_back({"setup_s", perfbench::Median(setup_s), "s"});
    // The calibration buffer is the benchmark's, not the simulator's.
    metrics.push_back({"peak_rss_mb", PeakRssMb() - perfbench::kCalibrationBufferMb, "MB"});
  } else {
    // Medians over the traced passes, each pass's times normalised by its
    // own host speed; then the probes and set-up parts.
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_norm;
    for (const Pass& p : traced) {
      mi_mismatches += p.mi_mismatches;
      traced_norm.push_back(p.norm_s);
      for (perfbench::Metric m : LayerMetrics(p)) {
        if (IsTime(m.unit)) {
          m.value *= p.norm_s / p.region_s;
        }
        if (samples.count(m.name) == 0) {
          metrics.push_back(m);
        }
        samples[m.name].push_back(m.value);
      }
    }
    for (perfbench::Metric& m : metrics) {
      m.value = perfbench::Median(samples[m.name]);
    }
    perfbench::Calibrate();
    const std::uint64_t t0 = perfbench::NowNs();
    std::vector<perfbench::Metric> probes = perfbench::RunLayerProbes();
    const std::uint64_t t1 = perfbench::NowNs();
    perfbench::Calibrate();
    const double probe_scale = perfbench::MeasureRegion(t0, t1).normalized_s * 1e9 /
                               static_cast<double>(t1 - t0);
    for (perfbench::Metric& m : probes) {
      m.value *= IsTime(m.unit) ? probe_scale : 1.0;
      metrics.push_back(m);
    }
    metrics.push_back({"trajectory.load_ms", perfbench::Median(load_ms), "ms"});
    metrics.push_back({"trace.overhead_s",
                       perfbench::Median(traced_norm) - perfbench::Median(untraced_norm), "s"});
    metrics.push_back({"host.pass_wall_s", perfbench::Median(untraced_wall), "s"});
    metrics.push_back({"host.setup_wall_s", perfbench::Median(setup_wall_s), "s"});
    metrics.push_back({"host.slowdown", perfbench::Median(slowdown), "x"});
    std::vector<double> kernel_us[perfbench::kKernels];
    for (const perfbench::Calibration& c : perfbench::Calibrations()) {
      for (int k = 0; k < perfbench::kKernels; ++k) {
        kernel_us[k].push_back(static_cast<double>(c.kernel_ns[k]) / 1e3);
      }
    }
    metrics.push_back({"host.load_kernel_us", perfbench::Median(kernel_us[perfbench::kLoadKernel]),
                       "us"});
    metrics.push_back({"host.integer_kernel_us",
                       perfbench::Median(kernel_us[perfbench::kIntegerKernel]), "us"});
    const std::string trace_path = std::string(kOutDir) + "/trace-" + workload.name + "-seed" +
                                   std::to_string(args->seed) + ".json";
    std::ofstream(trace_path) << traced.back().trace.ToJson();
    std::printf("perfbench: spans of the last traced pass written to %s\n", trace_path.c_str());
  }
  std::filesystem::remove(record_path);
  std::filesystem::remove(record_path + ".lock");

  const bool correct = failed == 0 && repeatable && mi_mismatches == 0;
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  cells %zu, failed_cells %zu, correct %s\n", attempted, failed,
              correct ? "yes" : "NO");
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}
