// Build-once set-ups: a channel's shards share a seed-free ChannelSetup,
// built once per grid cell and deep-cloned into each shard
// (runner::CellSetup, Experiment::Clone), the way the paper's Kernel_Clone
// makes a domain's kernel by copying an image rather than rebuilding it.
// Cells whose set-ups differ only in the size of their newest buffer share
// one, grown from size to size (RunBufferLadder).
#ifndef TP_ATTACKS_SETUP_CACHE_HPP_
#define TP_ATTACKS_SETUP_CACHE_HPP_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "attacks/prime_probe.hpp"
#include "core/domain.hpp"
#include "faults/fault.hpp"
#include "hw/taint.hpp"
#include "runner/sweep.hpp"

namespace tp::attacks {

// The seed-free part of a channel run, one plain type for every channel:
// the experiment and whatever a channel's set-up maps before its seeded
// run starts the sender and receiver threads. Each channel's SetUp*/Run*
// pair says which fields it uses.
struct ChannelSetup {
  Experiment exp;
  core::MappedBuffer receiver_buffer;
  core::MappedBuffer sender_buffer;
  std::optional<EvictionSet> eviction_set;  // the receiver's
  kernel::CapIdx sender_cap = 0;            // a cap granted to the sender

  ChannelSetup Clone() const {
    return {exp.Clone(), receiver_buffer, sender_buffer, eviction_set, sender_cap};
  }
  void DetachTally() { exp.DetachTally(); }
};

// Whether a set-up built now may be shared by later runs. Not under taint
// tracking, fault injection or a global config override: a contract
// checker and armed fault sites count events per build, and an override
// can change between builds without changing the cell.
inline bool SetupSharingAllowed() {
  return !hw::TaintTrackingEnabled() && !faults::FaultInjectionEnabled() &&
         !GlobalConfigOverrideSet();
}

// One cell of a buffer ladder: its result, the host time it took and the
// contract tally it captured (all-zero when taint tracking is off).
template <typename R>
struct LadderCell {
  R value{};
  std::uint64_t wall_ns = 0;
  hw::ContractTally contract;
};

// A buffer ladder runs cells whose set-ups differ only in the size of one
// buffer, the newest allocation the set-up made. `build()` makes the
// set-up with that buffer empty; `Setup` provides Clone() and Grow(bytes),
// which maps more of the buffer exactly as a bigger first allocation would
// have (core::DomainManager::GrowBuffer). `run(setup, i)` runs cell i on a
// set-up whose buffer holds `sizes[i]` bytes, and may use it up.
//
// The cells run in ascending size (ties in index order) on one set-up,
// grown to each size in turn: every cell runs on a clone of it, except the
// last, which runs on the set-up itself, so no clone of the largest
// set-up lives beside it. The set-up is never detached from the work
// tallies: each clone tallies the set-up as a fresh build of its cell
// would, and the set-up itself tallies what the last cell's build would.
// When sharing is not allowed (SetupSharingAllowed), each cell builds and
// grows its own set-up instead.
//
// A cell's time and contract tally cover its growth step, its clone, its
// run and the clone's teardown; the first cell's also cover the build and
// the last cell's the set-up's teardown, so the cells' times add up to
// the ladder's. Returns the cells in index order.
template <typename Build, typename Run>
auto RunBufferLadder(const std::vector<std::size_t>& sizes, Build&& build, Run&& run) {
  using Setup = std::invoke_result_t<Build&>;
  using R = std::invoke_result_t<Run&, Setup&, std::size_t>;
  std::vector<std::size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&sizes](std::size_t a, std::size_t b) { return sizes[a] < sizes[b]; });
  const bool share = SetupSharingAllowed();
  std::vector<LadderCell<R>> cells(sizes.size());
  std::optional<Setup> setup;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const auto t0 = std::chrono::steady_clock::now();
    hw::ContractCapture capture;
    if (!share || !setup.has_value()) {
      setup.emplace(build());
      runner::NoteSetupBuilt();
    }
    setup->Grow(sizes[i]);
    if (share && k + 1 < order.size()) {
      Setup clone = setup->Clone();
      runner::NoteSetupCloned();
      cells[i].value = run(clone, i);
    } else {
      cells[i].value = run(*setup, i);
      setup.reset();
    }
    cells[i].contract = capture.Take();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    cells[i].wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }
  return cells;
}

}  // namespace tp::attacks

#endif  // TP_ATTACKS_SETUP_CACHE_HPP_
