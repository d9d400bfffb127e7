// Page-colouring arithmetic and coloured frame pools (paper §2.3, §3.3).
//
// The colouring cache is the smallest-colour physically-indexed cache the
// platform shares or stacks below: the private L2 on Haswell (8 colours;
// partitioning it implicitly colours the 32-colour LLC, §5.4.4) and the
// shared 16-colour L2-as-LLC on the Sabre.
#ifndef TP_CORE_COLOUR_HPP_
#define TP_CORE_COLOUR_HPP_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "faults/fault.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"

namespace tp::core {

using CSpacePtr = std::shared_ptr<kernel::CSpace>;

// Geometry of the cache used for colouring on this platform.
const hw::CacheGeometry& ColouringCache(const hw::MachineConfig& config);
std::size_t NumColours(const hw::MachineConfig& config);
std::size_t ColourOf(const hw::MachineConfig& config, hw::PAddr paddr);

// Splits the platform's colours into `parts` disjoint sets, each containing
// `fraction` of an equal share (fraction < 1 models the reduced-cache
// experiments of Fig. 7).
std::vector<std::set<std::size_t>> SplitColours(const hw::MachineConfig& config,
                                                std::size_t parts, double fraction = 1.0);

// A frame pool bucketed by colour: the init process retypes frames from its
// Untyped memory and sorts them into per-colour free lists, which is how
// the paper's resource manager partitions memory (§3.3).
class ColourPool {
 public:
  ColourPool(kernel::Kernel& kernel, CSpacePtr cspace, kernel::CapIdx untyped);
  // Copy of `other` serving `kernel` (a clone of other's) from `cspace`.
  ColourPool(const ColourPool& other, kernel::Kernel& kernel, CSpacePtr cspace);

  // Retypes `frames` more frames into the pool. Returns frames obtained.
  std::size_t Refill(std::size_t frames);

  // Takes one frame whose colour lies in `colours` (any colour if empty),
  // refilling as needed. Returns the frame capability in the pool cspace.
  std::optional<kernel::CapIdx> TakeFrame(const std::set<std::size_t>& colours);

  std::size_t Available(std::size_t colour) const;
  std::size_t num_colours() const { return buckets_.size(); }
  hw::PAddr FrameBase(kernel::CapIdx frame_cap) const;
  kernel::CSpace& cspace() { return *cspace_; }

 private:
  kernel::Kernel& kernel_;
  CSpacePtr cspace_;
  kernel::CapIdx untyped_;
  std::vector<std::deque<kernel::CapIdx>> buckets_;

  // colour.frame fault site: the pool remembers the distinct colour sets
  // it has served, and when armed serves the Nth constrained request from
  // an *earlier* requester's colours instead (a frame outside the
  // requesting domain's partition — exactly the allocator bug page
  // colouring exists to prevent).
  faults::FaultSite fault_frame_;
  std::vector<std::set<std::size_t>> request_sets_;
};

}  // namespace tp::core

#endif  // TP_CORE_COLOUR_HPP_
