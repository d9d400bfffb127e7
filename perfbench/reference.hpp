// Output check: every cell a workload records is compared exactly against
// an expected record — the committed quick-grid reference in
// BENCH_results.json when the workload's inputs are the committed ones,
// otherwise the same cell from the run's first pass.
#ifndef PERFBENCH_REFERENCE_HPP_
#define PERFBENCH_REFERENCE_HPP_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "trajectory/trajectory.hpp"

namespace perfbench {

// Records keyed by (bench, cell); "total" records are left out.
using CellRecords =
    std::map<std::pair<std::string, std::string>, tp::trajectory::TrajectoryRecord>;

// The newest label whose records are all quick-grid, by latest unix_time;
// empty when the trajectory has none.
std::string NewestQuickLabel(const tp::trajectory::Trajectory& trajectory);

// The cells recorded under `label` for `specs`. Fails (nullopt, `error`
// set) when any spec has no cell under the label, so that a wrong label can
// never read as zero cells checked.
std::optional<CellRecords> ReferenceCells(const tp::trajectory::Trajectory& trajectory,
                                          const std::string& label,
                                          const std::vector<std::string>& specs,
                                          std::string* error);

// Indexes a pass's recorded cells.
CellRecords IndexCells(const tp::trajectory::Trajectory& trajectory);

struct CheckResult {
  std::size_t cells = 0;   // cells the pass recorded
  std::size_t failed = 0;  // not ok, mismatched, unexpected or missing
  std::vector<std::string> messages;  // one per failed cell, naming it
};

// Checks a pass's cells of `specs` against `expected`: cell status,
// samples, mi_bits, m0_bits and every metrics value must match exactly
// (host timings are not compared). A cell with no expected record, and an
// expected cell the pass did not record, both count as failed. Specs
// absent from `expected` get only the health check.
CheckResult CheckCells(const CellRecords& got, const CellRecords& expected,
                       const std::vector<std::string>& specs);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_HPP_
