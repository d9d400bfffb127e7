#include "workloads.hpp"

namespace perfbench {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"probe",
       {"ablation_mechanisms", "fig3_kernel_channel", "fig5_flush_channel",
        "fig6_interrupt_channel", "table3_intra_core", "table4_flush_channel"}},
      {"switch",
       {"table6_switch_cost", "table2_flush_cost", "table7_clone_cost"}},
      {"splash",
       {"fig7_splash_colouring", "table8_timeshared", "fig4_llc_side_channel", "table5_ipc"}},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<std::string> AllWorkloadSpecs() {
  std::vector<std::string> out;
  for (const Workload& w : Workloads()) {
    out.insert(out.end(), w.specs.begin(), w.specs.end());
  }
  return out;
}

std::uint64_t MixRootSeed(std::uint64_t root_seed, std::uint64_t seed) {
  if (seed == kDefaultSeed) {
    return root_seed;
  }
  std::uint64_t z = root_seed ^ (seed * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
