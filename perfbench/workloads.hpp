// The benchmark's workloads: named sets of registered scenario specs, run
// serially on the quick grid. README.md says why each one exists and which
// layer it bypasses.
#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<std::string> specs;  // registered ChannelSpec names, run in this order
};

// The fixed workload table: probe, switch, splash.
const std::vector<Workload>& Workloads();

// nullptr for a name that is not in the table.
const Workload* FindWorkload(std::string_view name);

// Every scenario spec any workload runs, in table order (the per-layer
// `scenarios.<spec>.s` metrics).
std::vector<std::string> AllWorkloadSpecs();

// Seed 0 runs the committed inputs; the reference check applies to them.
inline constexpr std::uint64_t kDefaultSeed = 0;

// The channel-grid root seed for a benchmark seed: unchanged at the default
// seed, otherwise a splitmix64 mix of both.
std::uint64_t MixRootSeed(std::uint64_t root_seed, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP_
