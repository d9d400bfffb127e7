// Build-once set-ups: when the seed-free part of an experiment (machine,
// kernel, domains, probe buffers) is identical for every shard of a grid
// cell, a SetupSlot builds it once and hands each shard a deep clone
// (Experiment::Clone), the way the paper's Kernel_Clone makes a domain's
// kernel by copying an image rather than rebuilding it.
#ifndef TP_ATTACKS_SETUP_CACHE_HPP_
#define TP_ATTACKS_SETUP_CACHE_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

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

}  // namespace tp::attacks

#endif  // TP_ATTACKS_SETUP_CACHE_HPP_
