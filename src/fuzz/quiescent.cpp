// The quiescent oracle: Kernel::RunUntil, which advances runs of quiescent
// steps in one clock step, against the per-step reference loop that calls
// StepCore on the lowest-clock core. Both drive the same sender/receiver
// channel pair through the same RunFor chunks; every observation, clock,
// perf counter and the machine state digest must agree.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "attacks/flush_channel.hpp"
#include "attacks/interrupt_channel.hpp"
#include "attacks/kernel_channel.hpp"
#include "attacks/prime_probe.hpp"
#include "fuzz/oracles.hpp"
#include "hw/cache.hpp"
#include "kernel/kernel.hpp"

namespace tp::fuzz {

namespace {

// Forwards to a channel program, counting the steps it fast-forwarded.
class CountingProgram final : public kernel::UserProgram {
 public:
  explicit CountingProgram(kernel::UserProgram* inner) : inner_(inner) {}
  void Step(kernel::UserApi& api) override { inner_->Step(api); }
  bool Done() const override { return inner_->Done(); }
  std::size_t FastForward(kernel::UserApi& api, hw::Cycles bound) override {
    const std::size_t steps = inner_->FastForward(api, bound);
    fast_forwarded_ += steps;
    return steps;
  }
  std::uint64_t fast_forwarded() const { return fast_forwarded_; }

 private:
  kernel::UserProgram* inner_;
  std::uint64_t fast_forwarded_ = 0;
};

struct ChannelRun {
  attacks::Experiment exp;
  std::unique_ptr<attacks::SymbolSender> sender;
  std::unique_ptr<attacks::SliceReceiver> receiver;
  std::unique_ptr<CountingProgram> sender_thread;
  std::unique_ptr<CountingProgram> receiver_thread;

  // Starts the sender's or the receiver's thread; returns its TCB cap.
  kernel::CapIdx Start(bool sender_side, hw::CoreId core) {
    std::unique_ptr<CountingProgram>& thread = sender_side ? sender_thread : receiver_thread;
    thread = std::make_unique<CountingProgram>(
        sender_side ? static_cast<kernel::UserProgram*>(sender.get()) : receiver.get());
    return exp.manager->StartThread(sender_side ? *exp.sender_domain : *exp.receiver_domain,
                                    thread.get(), 120, core);
  }
};

// The receiver of a cache channel over every set of `g`, as
// SetUpIntraCoreChannel and RunIntraCoreChannel build it.
std::unique_ptr<attacks::SliceReceiver> CacheReceiver(attacks::Experiment& exp,
                                                      const hw::CacheGeometry& g,
                                                      hw::Indexing indexing, bool instruction,
                                                      hw::Cycles gap) {
  core::MappedBuffer rbuf = exp.manager->AllocBuffer(*exp.receiver_domain, 2 * g.size_bytes);
  std::set<std::size_t> sets;
  for (std::size_t s = 0; s < g.SetsPerSlice(); ++s) {
    sets.insert(s);
  }
  hw::SetAssociativeCache model("m", g, indexing);
  attacks::EvictionSet es = attacks::EvictionSet::Build(
      model, rbuf, sets, g.associativity, indexing == hw::Indexing::kVirtual);
  return std::make_unique<attacks::CacheProbeReceiver>(std::move(es), instruction, gap);
}

ChannelRun BuildChannel(const QuiescentSpec& spec) {
  const std::size_t cores = spec.same_core ? 1 : 2;
  const hw::MachineConfig mc =
      spec.sabre ? hw::MachineConfig::Sabre(cores) : hw::MachineConfig::Haswell(cores);
  attacks::ExperimentOptions options;
  options.timeslice_ms = spec.timeslice_ms;
  options.same_core = spec.same_core;
  if (spec.family == QuiescentFamily::kInterrupt) {
    options.sender_device_timers = {0};
  }
  ChannelRun run{attacks::MakeExperiment(mc, spec.scenario, options)};
  attacks::Experiment& exp = run.exp;
  core::DomainManager& manager = *exp.manager;
  const hw::Cycles gap = exp.SliceGapThreshold();
  const hw::CoreId receiver_core = spec.same_core ? 0 : 1;
  const std::uint64_t seed = spec.seed;

  switch (spec.family) {
    case QuiescentFamily::kL1D:
    case QuiescentFamily::kL1I: {
      const bool instr = spec.family == QuiescentFamily::kL1I;
      const hw::CacheGeometry& l1 = instr ? mc.l1i : mc.l1d;
      run.receiver = CacheReceiver(exp, l1, hw::Indexing::kVirtual, instr, gap);
      core::MappedBuffer sbuf = manager.AllocBuffer(*exp.sender_domain, 2 * l1.size_bytes);
      run.sender = std::make_unique<attacks::CacheSetSender>(
          sbuf, l1.TotalLines() / 4, l1.line_size, /*writes=*/!instr, instr, 4, seed, gap);
      break;
    }
    case QuiescentFamily::kL2: {
      // The Sabre has no private L2: probe its shared L2 (the LLC) instead.
      const hw::CacheGeometry& l2 = mc.has_private_l2 ? mc.l2 : mc.llc;
      run.receiver = CacheReceiver(exp, l2, hw::Indexing::kPhysical, false, gap);
      core::MappedBuffer sbuf = manager.AllocBuffer(*exp.sender_domain, 2 * l2.size_bytes);
      run.sender =
          std::make_unique<attacks::PrefetchTrainSender>(sbuf, l2.line_size, 4, seed, gap);
      break;
    }
    case QuiescentFamily::kTlb: {
      const std::size_t pages = mc.l2tlb.entries;
      core::MappedBuffer rbuf =
          manager.AllocBuffer(*exp.receiver_domain, pages * hw::kPageSize);
      run.receiver = std::make_unique<attacks::TlbProbeReceiver>(rbuf, pages, gap);
      core::MappedBuffer sbuf = manager.AllocBuffer(*exp.sender_domain, pages * hw::kPageSize);
      run.sender = std::make_unique<attacks::TlbSender>(sbuf, pages / 4, 4, seed, gap);
      break;
    }
    case QuiescentFamily::kBtb: {
      const hw::VAddr pc_base = 0x40000000;
      const std::size_t sets = mc.bp.btb_entries / mc.bp.btb_associativity;
      const std::size_t probes = mc.bp.btb_entries / 2;
      run.receiver = std::make_unique<attacks::BtbProbeReceiver>(pc_base, probes, gap);
      run.sender =
          std::make_unique<attacks::BtbSender>(pc_base + sets * 4, probes / 4, 4, seed, gap);
      break;
    }
    case QuiescentFamily::kBhb: {
      const hw::VAddr pc_base = 0x50000000;
      run.receiver = std::make_unique<attacks::BhbProbeReceiver>(pc_base, 64, gap);
      run.sender = std::make_unique<attacks::BhbSender>(pc_base, 96, 4, seed, gap);
      break;
    }
    case QuiescentFamily::kKernel: {
      // A small probe buffer over the boot kernel's syscall text sets: any
      // eviction set exercises the receiver's stepping.
      kernel::Kernel& k = *exp.kernel;
      const kernel::KernelImageObj& boot =
          k.objects().As<kernel::KernelImageObj>(k.boot_image_id());
      const hw::SetAssociativeCache& llc = exp.machine->llc();
      std::set<std::size_t> target_sets;
      for (kernel::KernelOp op : {kernel::KernelOp::kEntry, kernel::KernelOp::kSignal,
                                  kernel::KernelOp::kTcbSetPriority, kernel::KernelOp::kPoll}) {
        const kernel::Kernel::TextWindow w = kernel::Kernel::TextWindowFor(op);
        for (std::uint32_t l = w.offset_lines; l < w.offset_lines + w.length_lines; ++l) {
          target_sets.insert(
              llc.SetIndexOf(boot.PaddrOf(boot.text_off + l * llc.geometry().line_size)));
        }
      }
      core::MappedBuffer rbuf = manager.AllocBuffer(*exp.receiver_domain, 64 * hw::kPageSize);
      run.receiver = std::make_unique<attacks::KernelProbeReceiver>(
          attacks::EvictionSet::BuildSliced(llc, rbuf, target_sets, llc.geometry().associativity),
          gap);
      const kernel::CapIdx notif =
          manager.GrantCap(*exp.sender_domain, manager.CreateNotification(*exp.sender_domain));
      auto sender = std::make_unique<attacks::KernelChannelSender>(notif, 0, seed, gap);
      attacks::KernelChannelSender& kernel_sender = *sender;
      run.sender = std::move(sender);
      // The sender adjusts its own priority: its TCB cap exists only once
      // the thread does (as in RunKernelChannel).
      const kernel::CapIdx tcb = run.Start(/*sender_side=*/true, 0);
      kernel_sender.SetCaps(notif, manager.GrantCap(*exp.sender_domain, tcb));
      run.Start(/*sender_side=*/false, receiver_core);
      return run;
    }
    case QuiescentFamily::kFlushOffline:
    case QuiescentFamily::kFlushOnline: {
      core::MappedBuffer sbuf = manager.AllocBuffer(*exp.sender_domain, 2 * mc.l1d.size_bytes);
      run.sender = std::make_unique<attacks::DirtyLineSender>(
          sbuf, mc.l1d.TotalLines() / 4, mc.l1d.line_size, 4, seed, gap);
      run.receiver = std::make_unique<attacks::FlushTimingReceiver>(
          spec.family == QuiescentFamily::kFlushOnline ? attacks::TimingObservable::kOnline
                                                       : attacks::TimingObservable::kOffline,
          gap);
      break;
    }
    case QuiescentFamily::kInterrupt: {
      const kernel::CapIdx timer =
          manager.GrantCap(*exp.sender_domain, exp.kernel->boot_info().device_timers[0]);
      const double tick_us = spec.timeslice_ms * 1000.0;
      run.sender = std::make_unique<attacks::TimerTrojan>(
          timer, exp.machine->MicrosToCycles(spec.irq_delay_ticks * tick_us),
          exp.machine->MicrosToCycles(0.1 * tick_us), 5, seed, gap);
      run.receiver = std::make_unique<attacks::InterruptSpy>(300, gap);
      break;
    }
  }
  run.Start(/*sender_side=*/true, 0);
  run.Start(/*sender_side=*/false, receiver_core);
  return run;
}

// Everything a run can be compared on.
struct RunResult {
  std::vector<int> symbols;
  std::vector<double> samples;
  std::vector<hw::Cycles> clocks;
  std::vector<hw::PerfCounters> counters;
  std::uint64_t digest = 0;
  std::uint64_t domain_switches = 0;
  std::uint64_t sender_fast_forwarded = 0;
  std::uint64_t receiver_fast_forwarded = 0;
};

RunResult RunChannel(const QuiescentSpec& spec, bool stepwise) {
  ChannelRun run = BuildChannel(spec);
  kernel::Kernel& kernel = *run.exp.kernel;
  hw::Machine& machine = *run.exp.machine;
  const hw::Cycles slice = machine.MicrosToCycles(spec.timeslice_ms * 1000.0);
  for (std::uint64_t eighths : spec.chunks) {
    hw::Cycles start = ~hw::Cycles{0};
    for (std::size_t c = 0; c < machine.num_cores(); ++c) {
      start = std::min(start, machine.core(c).now());
    }
    const hw::Cycles until = start + eighths * slice / 8;
    if (stepwise) {
      StepwiseRunUntil(kernel, until);
    } else {
      kernel.RunUntil(until);
    }
  }
  RunResult out;
  out.symbols = run.sender->symbols_sent();
  out.samples = run.receiver->samples();
  for (std::size_t c = 0; c < machine.num_cores(); ++c) {
    out.clocks.push_back(machine.core(c).now());
    out.counters.push_back(machine.core(c).counters());
  }
  out.digest = machine.StateDigest();
  out.domain_switches = kernel.domain_switches();
  out.sender_fast_forwarded = run.sender_thread->fast_forwarded();
  out.receiver_fast_forwarded = run.receiver_thread->fast_forwarded();
  return out;
}

std::string DiffResults(const RunResult& fast, const RunResult& ref) {
  if (fast.symbols != ref.symbols) {
    return "symbols sent differ (" + std::to_string(fast.symbols.size()) + " vs " +
           std::to_string(ref.symbols.size()) + " sent)";
  }
  if (fast.samples.size() != ref.samples.size()) {
    return "sample count " + std::to_string(fast.samples.size()) + " vs " +
           std::to_string(ref.samples.size());
  }
  for (std::size_t i = 0; i < fast.samples.size(); ++i) {
    if (fast.samples[i] != ref.samples[i]) {
      return "sample " + std::to_string(i) + " " + std::to_string(fast.samples[i]) + " vs " +
             std::to_string(ref.samples[i]);
    }
  }
  for (std::size_t c = 0; c < fast.clocks.size(); ++c) {
    const std::string core = "core " + std::to_string(c) + " ";
    if (fast.clocks[c] != ref.clocks[c]) {
      return core + "cycles " + std::to_string(fast.clocks[c]) + " vs " +
             std::to_string(ref.clocks[c]);
    }
    if (std::string why = DiffPerfCounters(fast.counters[c], ref.counters[c]); !why.empty()) {
      return core + why;
    }
  }
  if (fast.domain_switches != ref.domain_switches) {
    return "domain switches " + std::to_string(fast.domain_switches) + " vs " +
           std::to_string(ref.domain_switches);
  }
  if (fast.digest != ref.digest) {
    return "StateDigest differs";
  }
  return "";
}

}  // namespace

const char* QuiescentFamilyName(QuiescentFamily family) {
  static constexpr const char* kNames[kQuiescentFamilies] = {
      "L1-D", "L1-I", "L2", "TLB", "BTB", "BHB", "kernel", "flush-offline", "flush-online",
      "interrupt"};
  return kNames[static_cast<std::size_t>(family)];
}

void StepwiseRunUntil(kernel::Kernel& kernel, hw::Cycles until) {
  hw::Machine& machine = kernel.machine();
  while (true) {
    std::size_t min_core = 0;
    hw::Cycles min_now = ~hw::Cycles{0};
    for (std::size_t c = 0; c < machine.num_cores(); ++c) {
      if (machine.core(c).now() < min_now) {
        min_now = machine.core(c).now();
        min_core = c;
      }
    }
    if (min_now >= until) {
      return;
    }
    kernel.StepCore(static_cast<hw::CoreId>(min_core));
  }
}

QuiescentOutcome CompareQuiescent(const QuiescentSpec& spec) {
  QuiescentOutcome out;
  const RunResult fast = RunChannel(spec, /*stepwise=*/false);
  out.sender_fast_forwarded = fast.sender_fast_forwarded;
  out.receiver_fast_forwarded = fast.receiver_fast_forwarded;
  const RunResult ref = RunChannel(spec, /*stepwise=*/true);
  if (std::string why = DiffResults(fast, ref); !why.empty()) {
    out.diff = std::string(QuiescentFamilyName(spec.family)) + " on " +
               (spec.sabre ? "Sabre" : "Haswell") +
               (spec.same_core ? ", one core" : ", two cores") +
               ": RunUntil vs StepCore loop: " + why;
  }
  return out;
}

}  // namespace tp::fuzz
