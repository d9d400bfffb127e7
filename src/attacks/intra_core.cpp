#include "attacks/intra_core.hpp"

#include <memory>

#include "attacks/prime_probe.hpp"

namespace tp::attacks {

const char* ResourceName(IntraCoreResource resource) {
  switch (resource) {
    case IntraCoreResource::kL1D:
      return "L1-D";
    case IntraCoreResource::kL1I:
      return "L1-I";
    case IntraCoreResource::kTlb:
      return "TLB";
    case IntraCoreResource::kBtb:
      return "BTB";
    case IntraCoreResource::kBhb:
      return "BHB";
    case IntraCoreResource::kL2:
      return "L2";
  }
  return "?";
}

bool ResourceAvailable(IntraCoreResource resource, const hw::MachineConfig& config) {
  return resource != IntraCoreResource::kL2 || config.has_private_l2;
}

ExperimentOptions IntraCoreOptions(const hw::MachineConfig& config) {
  ExperimentOptions options;
  options.timeslice_ms = config.arch == hw::Arch::kX86 ? 0.25 : 0.5;
  return options;
}

ChannelSetup SetUpIntraCoreChannel(Experiment exp, IntraCoreResource resource) {
  ChannelSetup setup{std::move(exp)};
  const hw::MachineConfig& mc = setup.exp.machine_config;
  core::DomainManager& manager = *setup.exp.manager;
  switch (resource) {
    case IntraCoreResource::kL1D:
    case IntraCoreResource::kL1I:
    case IntraCoreResource::kL2: {
      // An eviction set over every set of the private cache, from a
      // receiver buffer of twice its size; L1s are virtually indexed.
      const bool l1 = resource != IntraCoreResource::kL2;
      const hw::CacheGeometry& g =
          !l1 ? mc.l2 : (resource == IntraCoreResource::kL1I ? mc.l1i : mc.l1d);
      setup.receiver_buffer =
          manager.AllocBuffer(*setup.exp.receiver_domain, 2 * g.size_bytes);
      std::set<std::size_t> sets;
      for (std::size_t s = 0; s < g.SetsPerSlice(); ++s) {
        sets.insert(s);
      }
      hw::SetAssociativeCache model("m", g,
                                    l1 ? hw::Indexing::kVirtual : hw::Indexing::kPhysical);
      setup.eviction_set =
          EvictionSet::Build(model, setup.receiver_buffer, sets, g.associativity, l1);
      setup.sender_buffer = manager.AllocBuffer(*setup.exp.sender_domain, 2 * g.size_bytes);
      break;
    }
    case IntraCoreResource::kTlb: {
      const std::size_t bytes = mc.l2tlb.entries * hw::kPageSize;
      setup.receiver_buffer = manager.AllocBuffer(*setup.exp.receiver_domain, bytes);
      setup.sender_buffer = manager.AllocBuffer(*setup.exp.sender_domain, bytes);
      break;
    }
    case IntraCoreResource::kBtb:
    case IntraCoreResource::kBhb:
      break;  // the predictors are indexed by PC alone: nothing to map
  }
  return setup;
}

mi::Observations RunIntraCoreChannel(ChannelSetup& setup, IntraCoreResource resource,
                                     std::size_t rounds, std::uint64_t seed) {
  Experiment& exp = setup.exp;
  const hw::MachineConfig& mc = exp.machine_config;
  const hw::Cycles gap = exp.SliceGapThreshold();

  std::unique_ptr<SymbolSender> sender;
  std::unique_ptr<SliceReceiver> receiver;
  if (setup.eviction_set.has_value()) {  // a cache channel
    receiver = std::make_unique<CacheProbeReceiver>(
        *setup.eviction_set, resource == IntraCoreResource::kL1I, gap);
  }

  switch (resource) {
    case IntraCoreResource::kL1D:
    case IntraCoreResource::kL1I: {
      bool instr = resource == IntraCoreResource::kL1I;
      const hw::CacheGeometry& l1 = instr ? mc.l1i : mc.l1d;
      sender = std::make_unique<CacheSetSender>(setup.sender_buffer, l1.TotalLines() / 4,
                                                l1.line_size, /*writes=*/!instr, instr, 4,
                                                seed, gap);
      break;
    }
    case IntraCoreResource::kL2:
      // Symbol = number of live prefetcher streams: collides with the
      // receiver's sets in the raw system, and survives as stream-table
      // state under time protection (the Table 3 residual).
      sender = std::make_unique<PrefetchTrainSender>(setup.sender_buffer, mc.l2.line_size, 4,
                                                     seed, gap);
      break;
    case IntraCoreResource::kTlb: {
      std::size_t pages = mc.l2tlb.entries;
      receiver = std::make_unique<TlbProbeReceiver>(setup.receiver_buffer, pages, gap);
      sender = std::make_unique<TlbSender>(setup.sender_buffer, pages / 4, 4, seed, gap);
      break;
    }
    case IntraCoreResource::kBtb: {
      // Shared (virtual) PC region: the predictor is indexed by PC alone.
      hw::VAddr pc_base = 0x40000000;
      std::size_t sets = mc.bp.btb_entries / mc.bp.btb_associativity;
      std::size_t probes = mc.bp.btb_entries / 2;
      receiver = std::make_unique<BtbProbeReceiver>(pc_base, probes, gap);
      sender = std::make_unique<BtbSender>(pc_base + sets * 4, probes / 4, 4, seed, gap);
      break;
    }
    case IntraCoreResource::kBhb: {
      hw::VAddr pc_base = 0x50000000;
      receiver = std::make_unique<BhbProbeReceiver>(pc_base, 64, gap);
      sender = std::make_unique<BhbSender>(pc_base, 96, 4, seed, gap);
      break;
    }
  }

  exp.manager->StartThread(*exp.sender_domain, sender.get(), 120, 0);
  exp.manager->StartThread(*exp.receiver_domain, receiver.get(), 120, 0);
  return CollectObservations(exp, *sender, *receiver, rounds);
}

}  // namespace tp::attacks
