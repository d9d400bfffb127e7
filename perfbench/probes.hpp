// Layer probes: host time of direct calls into the hw and kernel layers'
// public functions, on the Haswell and Sabre configs the workloads use.
// Each returns the median of several repetitions.
#ifndef PERFBENCH_PROBES_HPP_
#define PERFBENCH_PROBES_HPP_

#include <vector>

#include "trace.hpp"

namespace perfbench {

// hw.batch_probe_ns, hw.miss_stream_ns, hw.flush_us,
// hw.machine_build_us.{haswell,sabre}, kernel.boot_us and
// kernel.switch_host_us.{protected,full}.
std::vector<Metric> RunLayerProbes();

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP_
