// Self-tests of the benchmark's own logic: span self time, the percentile
// summary, host-speed normalisation, the output check and the workload
// table. Exit 0 when every
// check holds; each failed check prints its line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "hostspeed.hpp"
#include "reference.hpp"
#include "scenarios/driver.hpp"
#include "scenarios/scenario.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
    }                                                                  \
  } while (0)

using perfbench::CellRecords;
using tp::trajectory::TrajectoryRecord;

void SelfTimeOfNestedSpans() {
  perfbench::Trace trace;
  const int parent = trace.Add({"runner.grid", "w", -1, 1000, 1100});
  const int child = trace.Add({"attacks.shard", "a", parent, 1010, 1030});
  trace.Add({"attacks.shard", "b", parent, 1020, 1050});  // overlaps the first child
  trace.Add({"attacks.shard", "c", parent, 1090, 1120});  // runs past the parent
  trace.Add({"mi.leakage", "d", child, 1012, 1018});       // a grandchild
  trace.Add({"runner.grid", "w", -1, 2000, 2010});         // a second, childless span
  // Children cover [1010, 1050) and [1090, 1100): 50 of the parent's 100 ns.
  CHECK(std::fabs(trace.SelfSeconds("runner.grid") - 60e-9) < 1e-15);
  // The grandchild is charged to its own parent only.
  CHECK(std::fabs(trace.SelfSeconds("attacks.shard") - (14e-9 + 30e-9 + 30e-9)) < 1e-15);
  CHECK(std::fabs(trace.TotalSeconds("attacks.shard") - 80e-9) < 1e-15);
  CHECK(trace.TotalSeconds("missing") == 0.0);
  CHECK(trace.ToJson().find("\"parent\": 0") != std::string::npos);
}

void PercentileReportsSampleCount() {
  std::vector<double> samples;
  for (int i = 25; i >= 1; --i) {
    samples.push_back(i);
  }
  const perfbench::Summary s = perfbench::Summarize(samples);
  CHECK(s.n == 25);
  CHECK(s.p50 == 13.0);
  CHECK(s.tail == 15.0);  // ten samples (16..25) lie beyond it
  CHECK(s.tail_pct == 60.0);
  CHECK(s.max == 25.0);

  const perfbench::Summary few = perfbench::Summarize({4.0, 1.0, 3.0, 2.0});
  CHECK(few.n == 4);
  CHECK(few.p50 == 2.5);
  CHECK(few.tail_pct == 0.0);  // no percentile has ten samples beyond it
  CHECK(few.tail == 4.0);

  CHECK(perfbench::Summarize({}).n == 0);
  CHECK(perfbench::Median({}) == 0.0);
}

// `count` calibrations every 100 ns from `start`, each taking 10 ns of the
// timeline, with every kernel `slowdown` times slower than its reference.
std::vector<perfbench::Calibration> EvenCalibrations(std::uint64_t start, int count,
                                                     double slowdown) {
  std::vector<perfbench::Calibration> log;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t at = start + 100 * static_cast<std::uint64_t>(i);
    perfbench::Calibration c{at, at + 10, {}};
    for (int k = 0; k < perfbench::kKernels; ++k) {
      c.kernel_ns[k] = static_cast<std::uint64_t>(perfbench::kReferenceKernelNs[k] * slowdown);
    }
    log.push_back(c);
  }
  return log;
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fabs(b) + 1e-18; }

void NormalisationScalesByHostSpeed() {
  // Time follows the load kernel alone, one to one.
  const perfbench::SpeedModel linear = {{1.0, 0.0}};
  // No calibration: the work is reported as measured.
  perfbench::Normalized n = perfbench::Normalize({}, 1000, 1500);
  CHECK(Near(n.raw_s, 500e-9) && Near(n.normalized_s, 500e-9));
  CHECK(perfbench::Normalize({}, 1500, 1000).raw_s == 0.0);

  // At the reference speed, only the calibrations' own time is taken out:
  // [0, 1000) holds ten calibrations of 10 ns.
  const std::vector<perfbench::Calibration> at_ref = EvenCalibrations(0, 10, 1.0);
  n = perfbench::Normalize(at_ref, 0, 1000);
  CHECK(Near(n.raw_s, 900e-9));
  CHECK(Near(n.normalized_s, 900e-9));
  // A region that ends inside a calibration counts none of it.
  CHECK(Near(perfbench::Normalize(at_ref, 0, 105).raw_s, 90e-9));

  // A host that runs the kernels twice as slowly halves the work under a
  // one-to-one model, and scales it by the product of the powers otherwise.
  const std::vector<perfbench::Calibration> slow = EvenCalibrations(0, 10, 2.0);
  n = perfbench::Normalize(slow, 0, 1000, linear);
  CHECK(Near(n.raw_s, 900e-9));
  CHECK(Near(n.normalized_s, 450e-9));
  n = perfbench::Normalize(slow, 0, 1000, {{0.5, 1.5}});
  CHECK(Near(n.normalized_s, 900e-9 / 4));
  std::vector<perfbench::Calibration> load_only = EvenCalibrations(0, 10, 1.0);
  for (perfbench::Calibration& c : load_only) {
    c.kernel_ns[perfbench::kLoadKernel] *= 4;
  }
  n = perfbench::Normalize(load_only, 0, 1000, {{0.5, 1.5}});
  CHECK(Near(n.normalized_s, 900e-9 / 2));

  // Work before the first and after the last calibration takes the speed of
  // the nearest ones.
  n = perfbench::Normalize(EvenCalibrations(1000, 3, 4.0), 0, 2000, linear);
  CHECK(Near(n.raw_s, 1970e-9));
  CHECK(Near(n.normalized_s, 1970e-9 / 4));

  // One interrupted calibration among its neighbours does not move the
  // speed: the median of the window ignores it.
  std::vector<perfbench::Calibration> spiky = EvenCalibrations(0, 20, 1.0);
  spiky[10].kernel_ns[perfbench::kLoadKernel] *= 50;
  spiky[10].kernel_ns[perfbench::kIntegerKernel] *= 50;
  n = perfbench::Normalize(spiky, 0, 2000);
  CHECK(Near(n.normalized_s, n.raw_s));

  // A slowdown half way through is charged to the second half only, up to
  // the stretches whose windows straddle it.
  std::vector<perfbench::Calibration> step = EvenCalibrations(0, 40, 1.0);
  const std::vector<perfbench::Calibration> step_slow = EvenCalibrations(0, 40, 2.0);
  std::copy(step_slow.begin() + 20, step_slow.end(), step.begin() + 20);
  n = perfbench::Normalize(step, 0, 4000, linear);
  CHECK(n.normalized_s < n.raw_s * 0.80);
  CHECK(n.normalized_s > n.raw_s * 0.70);
  CHECK(Near(perfbench::Normalize(step, 0, 1000, linear).normalized_s, 900e-9));
  CHECK(Near(perfbench::Normalize(step, 3000, 4000, linear).normalized_s, 450e-9));
}

TrajectoryRecord Cell(const std::string& bench, const std::string& cell, double mi) {
  TrajectoryRecord r;
  r.bench = bench;
  r.label = "ref";
  r.cell = cell;
  r.quick = true;
  r.samples = 100;
  r.mi_bits = mi;
  r.m0_bits = 0.1;
  return r;
}

void Put(CellRecords& records, const TrajectoryRecord& r) { records[{r.bench, r.cell}] = r; }

void ReferenceMismatchCountsAsFailedCell() {
  CellRecords expected;
  Put(expected, Cell("chan", "same", 1.5));
  Put(expected, Cell("chan", "mi", 1.5));
  Put(expected, Cell("chan", "status", 1.5));
  Put(expected, Cell("chan", "missing", 1.5));
  TrajectoryRecord cost = Cell("cost", "metric", NAN);
  cost.m0_bits = NAN;
  cost.metrics = {{"switch_us", 30.0}};
  Put(expected, cost);

  CellRecords got;
  Put(got, Cell("chan", "same", 1.5));
  Put(got, Cell("chan", "mi", 1.50001));
  TrajectoryRecord failed = Cell("chan", "status", 1.5);
  failed.cell_status = "failed";
  failed.cell_error = "boom";
  Put(got, failed);
  Put(got, Cell("chan", "extra", 1.5));
  cost.metrics["switch_us"] = 30.5;
  Put(got, cost);

  const perfbench::CheckResult r = perfbench::CheckCells(got, expected, {"chan", "cost"});
  CHECK(r.cells == 6);   // five recorded plus one expected but missing
  CHECK(r.failed == 5);  // mi, status, extra, missing, metric
  std::string all;
  for (const std::string& m : r.messages) {
    all += m + "\n";
  }
  CHECK(all.find("chan / mi: mi_bits") != std::string::npos);
  CHECK(all.find("chan / status: cell failed: boom") != std::string::npos);
  CHECK(all.find("chan / extra: no expected record") != std::string::npos);
  CHECK(all.find("chan / missing: expected cell not recorded") != std::string::npos);
  CHECK(all.find("cost / metric: metric switch_us") != std::string::npos);
  CHECK(all.find("chan / same") == std::string::npos);

  // A spec with no expected cells gets only the health check.
  CellRecords healthy;
  Put(healthy, Cell("new", "a", 0.3));
  Put(healthy, failed);
  const perfbench::CheckResult h = perfbench::CheckCells(healthy, {}, {"new", "chan"});
  CHECK(h.cells == 2);
  CHECK(h.failed == 1);
}

void WrongReferenceLabelFailsLoudly() {
  tp::trajectory::Trajectory t;
  TrajectoryRecord old_quick = Cell("chan", "a", 1.0);
  old_quick.label = "old-quick";
  old_quick.unix_time = 100;
  TrajectoryRecord new_quick = old_quick;
  new_quick.label = "new-quick";
  new_quick.unix_time = 200;
  TrajectoryRecord full = old_quick;
  full.label = "newest-full";
  full.quick = false;
  full.unix_time = 300;
  t.records = {old_quick, new_quick, full};
  CHECK(perfbench::NewestQuickLabel(t) == "new-quick");
  CHECK(perfbench::NewestQuickLabel({}).empty());

  std::string error;
  CHECK(perfbench::ReferenceCells(t, "new-quick", {"chan"}, &error).has_value());
  CHECK(!perfbench::ReferenceCells(t, "no-such-label", {"chan"}, &error).has_value());
  CHECK(error.find("no-such-label") != std::string::npos);
  CHECK(!perfbench::ReferenceCells(t, "new-quick", {"chan", "other"}, &error).has_value());
  CHECK(error.find("other") != std::string::npos);
}

void UnknownWorkloadsAreRejected() {
  CHECK(perfbench::FindWorkload("nope") == nullptr);
  CHECK(perfbench::FindWorkload("") == nullptr);
  CHECK(perfbench::FindWorkload("Probe") == nullptr);
  std::set<std::string> seen;
  for (const std::string name : {"probe", "switch", "splash"}) {
    const perfbench::Workload* w = perfbench::FindWorkload(name);
    CHECK(w != nullptr);
    if (w == nullptr) {
      continue;
    }
    std::string error;
    const std::vector<const tp::scenarios::ChannelSpec*> specs = tp::scenarios::SelectSpecs(
        tp::scenarios::ChannelRegistry::Global(), w->specs, &error);
    CHECK(error.empty());
    CHECK(specs.size() == w->specs.size());
    for (const std::string& spec : w->specs) {
      CHECK(seen.insert(spec).second);  // no spec in two workloads
    }
  }
  CHECK(perfbench::AllWorkloadSpecs().size() == seen.size());
}

void SeedMixing() {
  CHECK(perfbench::MixRootSeed(42, perfbench::kDefaultSeed) == 42);
  CHECK(perfbench::MixRootSeed(42, 1) != 42);
  CHECK(perfbench::MixRootSeed(42, 1) == perfbench::MixRootSeed(42, 1));
  CHECK(perfbench::MixRootSeed(42, 1) != perfbench::MixRootSeed(42, 2));
  CHECK(perfbench::MixRootSeed(42, 1) != perfbench::MixRootSeed(43, 1));
}

}  // namespace

int main() {
  SelfTimeOfNestedSpans();
  PercentileReportsSampleCount();
  NormalisationScalesByHostSpeed();
  ReferenceMismatchCountsAsFailedCell();
  WrongReferenceLabelFailsLoudly();
  UnknownWorkloadsAreRejected();
  SeedMixing();
  std::printf("perfbench_selftest: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
