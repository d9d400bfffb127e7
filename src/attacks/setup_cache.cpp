#include "attacks/setup_cache.hpp"

#include <atomic>

#include "attacks/channel_experiment.hpp"
#include "faults/fault.hpp"
#include "hw/taint.hpp"

namespace tp::attacks {

namespace {
std::atomic<std::uint64_t> g_setups_built{0};
std::atomic<std::uint64_t> g_setups_cloned{0};
}  // namespace

SetupTally SetupTallySnapshot() {
  return SetupTally{g_setups_built.load(std::memory_order_relaxed),
                    g_setups_cloned.load(std::memory_order_relaxed)};
}

void NoteSetupBuilt() { g_setups_built.fetch_add(1, std::memory_order_relaxed); }

void NoteSetupCloned() { g_setups_cloned.fetch_add(1, std::memory_order_relaxed); }

bool SetupSharingAllowed() {
  return !hw::TaintTrackingEnabled() && !faults::FaultInjectionEnabled() &&
         !GlobalConfigOverrideSet();
}

}  // namespace tp::attacks
