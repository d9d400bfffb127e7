// Build-once set-ups: when the seed-free part of an experiment (machine,
// kernel, domains, probe buffers) is identical for every shard of a grid
// cell, a SetupSlot builds it once and hands each shard a deep clone
// (Experiment::Clone), the way the paper's Kernel_Clone makes a domain's
// kernel by copying an image rather than rebuilding it. When set-ups
// differ only in the size of their newest buffer, a buffer ladder
// (RunBufferLadder) builds one and grows it from size to size.
#ifndef TP_ATTACKS_SETUP_CACHE_HPP_
#define TP_ATTACKS_SETUP_CACHE_HPP_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "hw/taint.hpp"

namespace tp::attacks {

// Process-wide tally of experiment set-ups: built from scratch, and
// cloned from a held one. Reported by tp_bench --profile, never gated.
struct SetupTally {
  std::uint64_t built = 0;
  std::uint64_t cloned = 0;
};
SetupTally SetupTallySnapshot();
void NoteSetupBuilt();
void NoteSetupCloned();

// Whether a set-up built now may be shared by later runs. Not under taint
// tracking, fault injection or a global config override: a contract
// checker and armed fault sites count events per build, and an override
// can change between builds without changing the key.
bool SetupSharingAllowed();

// A one-slot cache of one set-up, meant to be thread_local so that
// concurrent shards never share one. `Setup` provides Clone() and
// DetachTally(). The held set-up is detached from the work tallies: every
// clone tallies what a fresh build would, so per-pass work counts do not
// depend on the cache.
template <typename Setup>
class SetupSlot {
 public:
  // A set-up for `key`: a clone of the held one when it was built for
  // `key`, else `build()`, which replaces the held one. `key` must name
  // every input of `build` (the cell without its seed and rounds). When
  // sharing is not allowed, returns `build()` and leaves the slot alone.
  template <typename Build>
  Setup Acquire(const std::string& key, Build&& build) {
    if (!SetupSharingAllowed()) {
      NoteSetupBuilt();
      return build();
    }
    if (!held_.has_value() || key_ != key) {
      held_.reset();  // one set-up alive at a time, besides the clones
      held_.emplace(build());
      held_->DetachTally();
      key_ = key;
      NoteSetupBuilt();
    }
    NoteSetupCloned();
    return held_->Clone();
  }

  // Drops the held set-up (after its last use).
  void Release() {
    held_.reset();
    key_.clear();
  }

 private:
  std::string key_;
  std::optional<Setup> held_;
};

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
      NoteSetupBuilt();
    }
    setup->Grow(sizes[i]);
    if (share && k + 1 < order.size()) {
      Setup clone = setup->Clone();
      NoteSetupCloned();
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
