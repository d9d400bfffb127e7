// The clone oracle: an experiment cloned part-way through its set-up
// (Experiment::Clone, attacks::ChannelSetup::Clone) must go on exactly as
// the experiment it was cloned from, and as a fresh build that never was
// cloned. Each runs the rest of the set-up and then a channel tail: the
// kernel channel over a small probe buffer, or the intra-core L1-D channel
// (a receiver eviction set and a sender buffer) or the flush channel (a
// sender buffer) through its own SetUp/Run pair, the set-up one more step
// that the clone may come before or after. Every observation, clock, perf
// counter, domain switch and the machine state digest must agree.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "attacks/flush_channel.hpp"
#include "attacks/intra_core.hpp"
#include "attacks/kernel_channel.hpp"
#include "attacks/prime_probe.hpp"
#include "attacks/setup_cache.hpp"
#include "fuzz/oracles.hpp"
#include "kernel/kernel.hpp"

namespace tp::fuzz {

namespace {

attacks::Experiment Build(const CloneSpec& spec) {
  attacks::ExperimentOptions options;
  options.timeslice_ms = spec.timeslice_ms;
  options.same_core = spec.same_core;
  options.colour_fraction = spec.colour_fraction;
  const std::size_t cores = spec.same_core ? 1 : 2;
  return attacks::MakeExperiment(
      spec.sabre ? hw::MachineConfig::Sabre(cores) : hw::MachineConfig::Haswell(cores),
      spec.scenario, options);
}

// A channel set-up (the bare experiment until a channel tail's set-up
// step) plus the vspaces the ops retyped straight from the kernel's
// untyped pool (their table frames come from the kernel, not from the
// domain manager's coloured pools), and each domain's last buffer.
struct Run {
  attacks::ChannelSetup setup;
  std::vector<kernel::CapIdx> untyped_vspaces;
  std::array<core::MappedBuffer, 2> buffers;  // sender's, receiver's

  Run Clone() const { return Run{setup.Clone(), untyped_vspaces, buffers}; }
};

// One set-up op: op % 6 picks it, bit 4 the domain, bit 5 a variant, bit 6
// growth (buffers only), bits 8 and up its size.
void ApplyOp(Run& run, std::uint64_t op) {
  attacks::Experiment& exp = run.setup.exp;
  const std::size_t side = (op >> 4) & 1;
  core::Domain& domain = side != 0 ? *exp.receiver_domain : *exp.sender_domain;
  const bool variant = (op >> 5) & 1;
  const bool grow = (op >> 6) & 1;
  const std::uint64_t amount = op >> 8;
  constexpr hw::VAddr kLeafSpan = hw::VAddr{1} << 21;  // one leaf table's reach
  switch (op % 6) {
    case 0: {
      core::MappedBuffer& last = run.buffers[side];
      const std::size_t bytes = (1 + amount % 48) * hw::kPageSize;
      if (grow && domain.next_vaddr == last.base + last.bytes + hw::kPageSize) {
        // Grow the domain's newest allocation, when it is the last buffer.
        exp.manager->GrowBuffer(domain, last, last.bytes + bytes);
        break;
      }
      if (variant) {  // start a fresh leaf table's range: a new table frame
        domain.next_vaddr = (domain.next_vaddr / kLeafSpan + 1 + amount % 3) * kLeafSpan;
      }
      last = exp.manager->AllocBuffer(domain, bytes);
      break;
    }
    case 1:
      exp.manager->CreateNotification(domain);
      break;
    case 2:
      exp.manager->CreateEndpoint(domain);
      break;
    case 3:
      if (variant) {
        kernel::CapIdx vspace = 0;
        if (exp.kernel
                ->Retype(0, exp.manager->cspace(), exp.kernel->boot_info().untyped,
                         kernel::ObjectType::kVSpace, 0, &vspace)
                .ok()) {
          run.untyped_vspaces.push_back(vspace);
        }
      } else {
        exp.manager->CreateVSpace(domain);
      }
      break;
    case 4: {
      // Idle threads only: domain switches, flushes, timers.
      const hw::Cycles slice = exp.machine->MicrosToCycles(exp.timeslice_ms * 1000.0);
      exp.kernel->RunFor((1 + amount % 16) * slice / 8);
      break;
    }
    default:
      // A frame mapped into an untyped vspace, in a leaf range that may
      // need a new table frame from the kernel's untyped pool.
      if (!run.untyped_vspaces.empty()) {
        const std::optional<kernel::CapIdx> frame = exp.manager->pool().TakeFrame({});
        if (frame.has_value()) {
          exp.kernel->MapFrame(0, exp.manager->cspace(),
                               run.untyped_vspaces[amount % run.untyped_vspaces.size()],
                               *frame, (1 + (amount >> 8) % 8) * kLeafSpan);
        }
      }
      break;
  }
}

struct TailResult {
  std::vector<int> symbols;
  std::vector<double> samples;
  std::vector<hw::Cycles> clocks;
  std::vector<hw::PerfCounters> counters;
  std::uint64_t digest = 0;
  std::uint64_t domain_switches = 0;
};

// The kernel channel over a small probe buffer, for three timeslices.
TailResult RunTail(attacks::Experiment& exp, const CloneSpec& spec) {
  kernel::Kernel& k = *exp.kernel;
  const kernel::KernelImageObj& boot =
      k.objects().As<kernel::KernelImageObj>(k.boot_image_id());
  const hw::SetAssociativeCache& llc = exp.machine->llc();
  std::set<std::size_t> target_sets;
  for (kernel::KernelOp op : {kernel::KernelOp::kEntry, kernel::KernelOp::kSignal}) {
    const kernel::Kernel::TextWindow w = kernel::Kernel::TextWindowFor(op);
    for (std::uint32_t l = w.offset_lines; l < w.offset_lines + w.length_lines; ++l) {
      target_sets.insert(
          llc.SetIndexOf(boot.PaddrOf(boot.text_off + l * llc.geometry().line_size)));
    }
  }
  const hw::Cycles gap = exp.SliceGapThreshold();
  core::MappedBuffer rbuf =
      exp.manager->AllocBuffer(*exp.receiver_domain, 32 * hw::kPageSize);
  attacks::KernelProbeReceiver receiver(
      attacks::EvictionSet::BuildSliced(llc, rbuf, target_sets, llc.geometry().associativity),
      gap);
  const kernel::CapIdx notif = exp.manager->GrantCap(
      *exp.sender_domain, exp.manager->CreateNotification(*exp.sender_domain));
  attacks::KernelChannelSender sender(notif, 0, spec.seed, gap);
  const kernel::CapIdx tcb = exp.manager->StartThread(*exp.sender_domain, &sender, 120, 0);
  sender.SetCaps(notif, exp.manager->GrantCap(*exp.sender_domain, tcb));
  exp.manager->StartThread(*exp.receiver_domain, &receiver, 120, spec.same_core ? 0 : 1);
  k.RunFor(3 * exp.machine->MicrosToCycles(exp.timeslice_ms * 1000.0));

  TailResult out;
  out.symbols = sender.symbols_sent();
  out.samples = receiver.samples();
  for (std::size_t c = 0; c < exp.machine->num_cores(); ++c) {
    out.clocks.push_back(exp.machine->core(c).now());
    out.counters.push_back(exp.machine->core(c).counters());
  }
  out.digest = exp.machine->StateDigest();
  out.domain_switches = k.domain_switches();
  return out;
}

// Set-up step `i`: op i, or past the ops, a channel tail's own set-up.
void ApplyStep(Run& run, const CloneSpec& spec, std::size_t i) {
  if (i < spec.ops.size()) {
    ApplyOp(run, spec.ops[i]);
  } else if (spec.tail == CloneSpec::Tail::kIntraCoreL1d) {
    run.setup = attacks::SetUpIntraCoreChannel(std::move(run.setup.exp),
                                               attacks::IntraCoreResource::kL1D);
  } else {
    run.setup = attacks::SetUpFlushChannel(std::move(run.setup.exp));
  }
}

std::size_t NumSteps(const CloneSpec& spec) {
  return spec.ops.size() + (spec.tail == CloneSpec::Tail::kKernel ? 0 : 1);
}

// The tail on the finished set-up: its observations and end state.
TailResult RunChannelTail(Run& run, const CloneSpec& spec) {
  constexpr std::size_t kRounds = 3;
  if (spec.tail == CloneSpec::Tail::kKernel) {
    return RunTail(run.setup.exp, spec);
  }
  const mi::Observations obs =
      spec.tail == CloneSpec::Tail::kIntraCoreL1d
          ? attacks::RunIntraCoreChannel(run.setup, attacks::IntraCoreResource::kL1D, kRounds,
                                         spec.seed)
          : attacks::RunFlushChannel(run.setup, {}, kRounds, spec.seed);
  const attacks::Experiment& exp = run.setup.exp;
  TailResult out;
  out.symbols = obs.inputs();
  out.samples = obs.outputs();
  out.clocks.push_back(exp.machine->core(0).now());
  out.counters.push_back(exp.machine->core(0).counters());
  out.digest = exp.machine->StateDigest();
  out.domain_switches = exp.kernel->domain_switches();
  return out;
}

std::string Diff(const TailResult& a, const TailResult& ref) {
  if (a.symbols != ref.symbols) {
    return "symbols sent differ";
  }
  if (a.samples != ref.samples) {
    return "samples differ";
  }
  for (std::size_t c = 0; c < a.clocks.size(); ++c) {
    const std::string core = "core " + std::to_string(c) + " ";
    if (a.clocks[c] != ref.clocks[c]) {
      return core + "cycles " + std::to_string(a.clocks[c]) + " vs " +
             std::to_string(ref.clocks[c]);
    }
    if (std::string why = DiffPerfCounters(a.counters[c], ref.counters[c]); !why.empty()) {
      return core + why;
    }
  }
  if (a.domain_switches != ref.domain_switches) {
    return "domain switches " + std::to_string(a.domain_switches) + " vs " +
           std::to_string(ref.domain_switches);
  }
  if (a.digest != ref.digest) {
    return "StateDigest differs";
  }
  return "";
}

}  // namespace

std::string CompareClone(const CloneSpec& spec) {
  const std::size_t steps = NumSteps(spec);
  const std::size_t split = std::min(spec.clone_point, steps);
  Run reference{{Build(spec)}};
  for (std::size_t i = 0; i < steps; ++i) {
    ApplyStep(reference, spec, i);
  }
  const TailResult ref = RunChannelTail(reference, spec);
  auto finish = [&](Run& run, const char* what) -> std::string {
    for (std::size_t i = split; i < steps; ++i) {
      ApplyStep(run, spec, i);
    }
    std::string why = Diff(RunChannelTail(run, spec), ref);
    return why.empty() ? "" : std::string(what) + " (cloned at step " + std::to_string(split) +
                                  "): " + why;
  };

  // The first clone finishes while its source is still alive (anything it
  // takes from the source shows in the source's run), the source next, and
  // the second clone only after the source is gone.
  auto source = std::make_unique<Run>(Run{{Build(spec)}});
  for (std::size_t i = 0; i < split; ++i) {
    ApplyStep(*source, spec, i);
  }
  Run first = source->Clone();
  Run second = source->Clone();
  if (std::string why = finish(first, "clone"); !why.empty()) {
    return why;
  }
  if (std::string why = finish(*source, "source after cloning"); !why.empty()) {
    return why;
  }
  source.reset();
  return finish(second, "clone of a destroyed source");
}

}  // namespace tp::fuzz
