#include "attacks/kernel_channel.hpp"

namespace tp::attacks {

namespace {
constexpr std::size_t kSyscallsPerSlice = 24;
}

hw::Cycles KernelChannelSender::QuiescentCycles(int symbol, std::size_t burst) const {
  // Symbols 3 and up idle (the fourth symbol of I).
  return burst >= kSyscallsPerSlice || symbol >= 3 ? kIdleCycles : 0;
}

void KernelChannelSender::Transmit(kernel::UserApi& api, int symbol, std::size_t /*burst*/) {
  switch (symbol) {
    case 0:
      api.Signal(notification_);
      break;
    case 1:
      api.SetPriority(tcb_, 100);
      break;
    default:
      api.Poll(notification_);
      break;
  }
}

double KernelProbeReceiver::MeasureAndPrime(kernel::UserApi& api) {
  std::uint64_t misses0 = api.Counters().llc_misses;
  api.ReadBatch(eviction_set_.lines());
  return static_cast<double>(api.Counters().llc_misses - misses0);
}

namespace {

// The receiver's eviction set over the boot kernel's syscall text.
EvictionSet BuildKernelEvictionSet(Experiment& exp) {
  kernel::Kernel& k = *exp.kernel;
  const kernel::KernelImageObj& boot =
      k.objects().As<kernel::KernelImageObj>(k.boot_image_id());
  const hw::SetAssociativeCache& llc = exp.machine->llc();
  std::size_t line = llc.geometry().line_size;

  // Target sets: the boot kernel's syscall-serving text (§5.3.1 receiver
  // marks attack sets by comparing misses around the victim's syscalls; we
  // use the known layout directly).
  std::set<std::size_t> target_sets;
  for (kernel::KernelOp op : {kernel::KernelOp::kEntry, kernel::KernelOp::kSignal,
                              kernel::KernelOp::kTcbSetPriority, kernel::KernelOp::kPoll}) {
    kernel::Kernel::TextWindow w = kernel::Kernel::TextWindowFor(op);
    for (std::uint32_t l = w.offset_lines; l < w.offset_lines + w.length_lines; ++l) {
      target_sets.insert(llc.SetIndexOf(boot.PaddrOf(boot.text_off + l * line)));
    }
  }

  // Probe buffer from the receiver's (coloured) memory. Covering one LLC
  // set with `associativity` lines in every slice requires pages whose
  // set-base aligns with it: bases repeat every sets_per_slice lines, so
  // size the buffer accordingly (plus slack for the slice hash).
  const hw::CacheGeometry& g = llc.geometry();
  std::size_t bases = g.SetsPerSlice() * g.line_size / hw::kPageSize;
  std::size_t pages = g.associativity * g.num_slices * bases * 5 / 4;
  core::MappedBuffer buffer =
      exp.manager->AllocBuffer(*exp.receiver_domain, pages * hw::kPageSize);
  return EvictionSet::BuildSliced(llc, buffer, target_sets, g.associativity);
}

}  // namespace

ChannelSetup SetUpKernelChannel(Experiment exp) {
  ChannelSetup setup{std::move(exp)};
  setup.eviction_set = BuildKernelEvictionSet(setup.exp);
  return setup;
}

mi::Observations RunKernelChannel(ChannelSetup& setup, std::size_t rounds, std::uint64_t seed) {
  Experiment& exp = setup.exp;
  const hw::Cycles gap = exp.SliceGapThreshold();
  KernelProbeReceiver receiver(*setup.eviction_set, gap);

  // Sender-side objects, allocated from the sender's coloured pool.
  kernel::CapIdx notif_mgr = exp.manager->CreateNotification(*exp.sender_domain);
  kernel::CapIdx notif = exp.manager->GrantCap(*exp.sender_domain, notif_mgr);

  // TCB cap: the sender adjusts its own priority; create the thread first,
  // then grant its TCB cap into the domain cspace.
  KernelChannelSender sender(notif, 0, seed, gap);
  kernel::CapIdx sender_tcb_mgr = exp.manager->StartThread(*exp.sender_domain, &sender, 120, 0);
  kernel::CapIdx sender_tcb = exp.manager->GrantCap(*exp.sender_domain, sender_tcb_mgr);
  sender.SetCaps(notif, sender_tcb);

  exp.manager->StartThread(*exp.receiver_domain, &receiver, 120, 0);

  return CollectObservations(exp, sender, receiver, rounds);
}

}  // namespace tp::attacks
