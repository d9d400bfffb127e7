#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

using tp::trajectory::Trajectory;
using tp::trajectory::TrajectoryRecord;

std::string NewestQuickLabel(const Trajectory& trajectory) {
  std::map<std::string, std::pair<bool, std::int64_t>> labels;  // all quick, newest time
  for (const TrajectoryRecord& r : trajectory.records) {
    auto [it, fresh] = labels.try_emplace(r.label, true, r.unix_time);
    it->second.first = it->second.first && r.quick;
    it->second.second = std::max(it->second.second, r.unix_time);
  }
  std::string newest;
  std::int64_t newest_time = 0;
  for (const auto& [label, state] : labels) {
    if (state.first && (newest.empty() || state.second > newest_time)) {
      newest = label;
      newest_time = state.second;
    }
  }
  return newest;
}

std::optional<CellRecords> ReferenceCells(const Trajectory& trajectory, const std::string& label,
                                          const std::vector<std::string>& specs,
                                          std::string* error) {
  const std::set<std::string> wanted(specs.begin(), specs.end());
  CellRecords cells;
  for (const TrajectoryRecord& r : trajectory.records) {
    if (r.label == label && r.cell != "total" && wanted.count(r.bench) > 0) {
      cells[{r.bench, r.cell}] = r;
    }
  }
  for (const std::string& spec : specs) {
    auto it = cells.lower_bound({spec, ""});
    if (it == cells.end() || it->first.first != spec) {
      *error = "reference label '" + label + "' has no cells for '" + spec + "'";
      return std::nullopt;
    }
  }
  return cells;
}

CellRecords IndexCells(const Trajectory& trajectory) {
  CellRecords cells;
  for (const TrajectoryRecord& r : trajectory.records) {
    if (r.cell != "total") {
      cells[{r.bench, r.cell}] = r;
    }
  }
  return cells;
}

namespace {

// Exact equality, with NaN (an absent value) equal to itself.
bool SameValue(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

std::string Differs(const std::string& what, double got, double expected) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %.9g != expected %.9g", what.c_str(), got, expected);
  return buf;
}

// Why `got` differs from `expected`, or empty when they agree.
std::string CompareCell(const TrajectoryRecord& got, const TrajectoryRecord& expected) {
  if (!got.cell_ok()) {
    return "cell " + got.cell_status + ": " + got.cell_error;
  }
  if (got.samples != expected.samples) {
    return Differs("samples", static_cast<double>(got.samples),
                   static_cast<double>(expected.samples));
  }
  if (!SameValue(got.mi_bits, expected.mi_bits)) {
    return Differs("mi_bits", got.mi_bits, expected.mi_bits);
  }
  if (!SameValue(got.m0_bits, expected.m0_bits)) {
    return Differs("m0_bits", got.m0_bits, expected.m0_bits);
  }
  for (const auto& [key, value] : expected.metrics) {
    auto it = got.metrics.find(key);
    if (it == got.metrics.end()) {
      return "metric " + key + " missing";
    }
    if (!SameValue(it->second, value)) {
      return Differs("metric " + key, it->second, value);
    }
  }
  for (const auto& [key, value] : got.metrics) {
    if (expected.metrics.count(key) == 0) {
      return "unexpected metric " + key;
    }
  }
  return "";
}

}  // namespace

CheckResult CheckCells(const CellRecords& got, const CellRecords& expected,
                       const std::vector<std::string>& specs) {
  CheckResult result;
  auto fail = [&](const std::string& bench, const std::string& cell, const std::string& why) {
    ++result.failed;
    result.messages.push_back(bench + " / " + cell + ": " + why);
  };
  for (const std::string& spec : specs) {
    auto first_expected = expected.lower_bound({spec, ""});
    const bool has_expected =
        first_expected != expected.end() && first_expected->first.first == spec;
    for (auto it = got.lower_bound({spec, ""}); it != got.end() && it->first.first == spec;
         ++it) {
      ++result.cells;
      const TrajectoryRecord& cell = it->second;
      if (!has_expected) {
        if (!cell.cell_ok()) {
          fail(spec, cell.cell, "cell " + cell.cell_status + ": " + cell.cell_error);
        }
        continue;
      }
      auto want = expected.find(it->first);
      if (want == expected.end()) {
        fail(spec, cell.cell, "no expected record");
        continue;
      }
      if (std::string why = CompareCell(cell, want->second); !why.empty()) {
        fail(spec, cell.cell, why);
      }
    }
    for (auto it = first_expected; it != expected.end() && it->first.first == spec; ++it) {
      if (got.count(it->first) == 0) {
        ++result.cells;
        fail(spec, it->first.second, "expected cell not recorded");
      }
    }
  }
  return result;
}

}  // namespace perfbench
