// The full intra-core channel matrix of paper Table 3: one runner per
// time-shared on-core resource, wiring the prime&probe programs of
// prime_probe.hpp into a two-domain experiment.
#ifndef TP_ATTACKS_INTRA_CORE_HPP_
#define TP_ATTACKS_INTRA_CORE_HPP_

#include <cstdint>

#include "attacks/channel_experiment.hpp"
#include "attacks/setup_cache.hpp"
#include "mi/observations.hpp"

namespace tp::attacks {

enum class IntraCoreResource {
  kL1D,
  kL1I,
  kTlb,
  kBtb,
  kBhb,
  kL2,  // private L2 (x86 only): the paper's residual-prefetcher channel
};

const char* ResourceName(IntraCoreResource resource);

// True if the platform has the resource (the Sabre has no private L2).
bool ResourceAvailable(IntraCoreResource resource, const hw::MachineConfig& config);

// The experiment options of the on-core channels (Tables 3 and 4) on
// `config`: a 0.25 ms timeslice on x86, 0.5 ms on Arm.
ExperimentOptions IntraCoreOptions(const hw::MachineConfig& config);

// The seed-free set-up of the channel for `resource` in `exp`: whichever
// of the receiver's buffer and eviction set and the sender's buffer it has.
ChannelSetup SetUpIntraCoreChannel(Experiment exp, IntraCoreResource resource);

// The seeded run on a SetUpIntraCoreChannel set-up for the same
// `resource`: the paired (symbol, measurement) observations.
mi::Observations RunIntraCoreChannel(ChannelSetup& setup, IntraCoreResource resource,
                                     std::size_t rounds, std::uint64_t seed);

}  // namespace tp::attacks

#endif  // TP_ATTACKS_INTRA_CORE_HPP_
