#include "probes.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "core/colour.hpp"
#include "core/domain.hpp"
#include "core/time_protection.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace hw = tp::hw;

// User pages map one-to-one onto physical frames; page-table reads land in
// a fixed region above the probed buffers.
class IdentityContext final : public hw::TranslationContext {
 public:
  std::optional<hw::Translation> Translate(hw::VAddr va) const override {
    return hw::Translation{hw::PageAlignDown(va), false};
  }
  void WalkPath(hw::VAddr va, std::vector<hw::PAddr>& out) const override {
    out.push_back(kPageTables + (hw::PageNumber(va) % 512) * 8);
  }
  hw::Asid asid() const override { return 1; }

 private:
  static constexpr hw::PAddr kPageTables = 0x30000000;
};

constexpr hw::VAddr kBufferBase = 0x1000000;

double Micros(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// Core 0 of a one-core machine with the identity user context installed.
struct ProbeMachine {
  explicit ProbeMachine(const hw::MachineConfig& config) : machine(config) {
    core().SetUserContext(&context);
  }
  hw::Core& core() { return machine.core(0); }

  IdentityContext context;
  hw::Machine machine;
};

// Every line of an eviction set covering all L1-D sets and ways: the
// prime+probe receivers' batch, all hits once warm.
double BatchProbeNs(const hw::MachineConfig& config) {
  ProbeMachine pm(config);
  const hw::CacheGeometry& l1d = config.l1d;
  std::vector<hw::VAddr> lines;
  for (std::size_t way = 0; way < l1d.associativity; ++way) {
    for (std::size_t set = 0; set < l1d.SetsPerSlice(); ++set) {
      lines.push_back(kBufferBase + way * l1d.WaySpanBytes() + set * l1d.line_size);
    }
  }
  pm.core().AccessBatch(lines, hw::AccessKind::kRead);
  constexpr int kBatches = 400;
  std::vector<double> samples;
  for (int rep = 0; rep < 7; ++rep) {
    const std::uint64_t t0 = NowNs();
    for (int b = 0; b < kBatches; ++b) {
      pm.core().AccessBatch(lines, hw::AccessKind::kRead);
    }
    samples.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(kBatches * lines.size()));
  }
  return Median(samples);
}

// Sequential single accesses over twice the LLC: every line misses.
double MissStreamNs(const hw::MachineConfig& config) {
  ProbeMachine pm(config);
  const std::size_t bytes = 2 * config.llc.size_bytes;
  const std::size_t line = config.llc.line_size;
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = NowNs();
    for (std::size_t off = 0; off < bytes; off += line) {
      pm.core().Access(kBufferBase + off, hw::AccessKind::kRead);
    }
    samples.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(bytes / line));
  }
  return Median(samples);
}

// A full flush after dirtying the private caches' worth of lines.
double FlushUs(const hw::MachineConfig& config) {
  ProbeMachine pm(config);
  const std::size_t bytes =
      config.l1d.size_bytes + (config.has_private_l2 ? config.l2.size_bytes : 0);
  std::vector<hw::VAddr> lines;
  for (std::size_t off = 0; off < bytes; off += config.l1d.line_size) {
    lines.push_back(kBufferBase + off);
  }
  std::vector<double> samples;
  for (int rep = 0; rep < 9; ++rep) {
    pm.core().AccessBatch(lines, hw::AccessKind::kWrite);
    const std::uint64_t t0 = NowNs();
    pm.core().FullCacheFlush();
    samples.push_back(Micros(NowNs() - t0));
  }
  return Median(samples);
}

double MachineBuildUs(const hw::MachineConfig& config) {
  std::vector<double> samples;
  for (int rep = 0; rep < 15; ++rep) {
    const std::uint64_t t0 = NowNs();
    hw::Machine machine(config);
    samples.push_back(Micros(NowNs() - t0));
  }
  return Median(samples);
}

// A protected kernel plus a domain manager with two coloured domains, on a
// machine built beforehand.
double KernelBootUs(const hw::MachineConfig& config) {
  std::vector<double> samples;
  for (int rep = 0; rep < 9; ++rep) {
    hw::Machine machine(config);
    const std::uint64_t t0 = NowNs();
    tp::kernel::Kernel kernel(
        machine, tp::core::MakeKernelConfig(tp::core::Scenario::kProtected, machine, 1.0));
    tp::core::DomainManager manager(kernel);
    std::vector<std::set<std::size_t>> colours = tp::core::SplitColours(config, 2, 1.0);
    for (std::size_t d = 0; d < colours.size(); ++d) {
      tp::core::DomainOptions options;
      options.id = static_cast<tp::kernel::DomainId>(d + 1);
      options.colours = colours[d];
      manager.CreateDomain(options);
    }
    samples.push_back(Micros(NowNs() - t0));
  }
  return Median(samples);
}

// Host time of Kernel::RunFor per domain switch, two idle domains.
double SwitchHostUs(const hw::MachineConfig& config, tp::core::Scenario scenario) {
  tp::attacks::ExperimentOptions options;
  options.timeslice_ms = 0.25;
  tp::attacks::Experiment exp = tp::attacks::MakeExperiment(config, scenario, options);
  tp::kernel::Kernel& kernel = *exp.kernel;
  const hw::Cycles slice = exp.machine->MicrosToCycles(250.0);
  kernel.RunFor(4 * slice);
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t switches = kernel.domain_switches();
    const std::uint64_t t0 = NowNs();
    kernel.RunFor(16 * slice);
    const std::uint64_t done = kernel.domain_switches() - switches;
    samples.push_back(done > 0 ? Micros(NowNs() - t0) / static_cast<double>(done) : 0.0);
  }
  return Median(samples);
}

}  // namespace

std::vector<Metric> RunLayerProbes() {
  const hw::MachineConfig haswell = hw::MachineConfig::Haswell(1);
  const hw::MachineConfig sabre = hw::MachineConfig::Sabre(1);
  return {
      {"hw.batch_probe_ns", BatchProbeNs(haswell), "ns"},
      {"hw.miss_stream_ns", MissStreamNs(haswell), "ns"},
      {"hw.flush_us", FlushUs(haswell), "us"},
      {"hw.machine_build_us.haswell", MachineBuildUs(haswell), "us"},
      {"hw.machine_build_us.sabre", MachineBuildUs(sabre), "us"},
      {"kernel.boot_us", KernelBootUs(haswell), "us"},
      {"kernel.switch_host_us.protected",
       SwitchHostUs(haswell, tp::core::Scenario::kProtected), "us"},
      {"kernel.switch_host_us.full", SwitchHostUs(haswell, tp::core::Scenario::kFullFlush),
       "us"},
  };
}

}  // namespace perfbench
