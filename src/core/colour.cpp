#include "core/colour.hpp"

#include <utility>

namespace tp::core {

const hw::CacheGeometry& ColouringCache(const hw::MachineConfig& config) {
  // Haswell: colour by the private L2 (8 colours), which implicitly colours
  // the LLC (§5.4.4: no targeted L2 flush exists, so flushing-L2 +
  // LLC-colouring is not worthwhile). Sabre: the shared L2 is the LLC.
  return config.has_private_l2 ? config.l2 : config.llc;
}

std::size_t NumColours(const hw::MachineConfig& config) {
  return ColouringCache(config).Colours();
}

std::size_t ColourOf(const hw::MachineConfig& config, hw::PAddr paddr) {
  return hw::PageNumber(paddr) % NumColours(config);
}

std::vector<std::set<std::size_t>> SplitColours(const hw::MachineConfig& config,
                                                std::size_t parts, double fraction) {
  std::size_t total = NumColours(config);
  std::vector<std::set<std::size_t>> out(parts);
  std::size_t share = parts == 0 ? 0 : total / parts;
  for (std::size_t p = 0; p < parts; ++p) {
    std::size_t take = static_cast<std::size_t>(static_cast<double>(share) * fraction);
    if (take == 0) {
      take = 1;
    }
    for (std::size_t c = 0; c < take; ++c) {
      out[p].insert(p * share + c);
    }
  }
  // colour.mask fault site: partition 1's mask gains one of partition 0's
  // colours, so two supposedly-disjoint domains share a cache partition.
  faults::FaultSite fault_mask = faults::FaultSite::For("colour.mask");
  if (fault_mask.FireAlways() && parts >= 2 && !out[0].empty()) {
    out[1].insert(*out[0].begin());
  }
  return out;
}

ColourPool::ColourPool(kernel::Kernel& kernel, CSpacePtr cspace, kernel::CapIdx untyped)
    : kernel_(kernel), cspace_(std::move(cspace)), untyped_(untyped) {
  buckets_.resize(NumColours(kernel_.machine().config()));
  fault_frame_ = faults::FaultSite::For("colour.frame");
}

ColourPool::ColourPool(const ColourPool& other, kernel::Kernel& kernel, CSpacePtr cspace)
    : kernel_(kernel),
      cspace_(std::move(cspace)),
      untyped_(other.untyped_),
      buckets_(other.buckets_),
      fault_frame_(other.fault_frame_),
      request_sets_(other.request_sets_) {}

std::size_t ColourPool::Refill(std::size_t frames) {
  std::size_t got = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    kernel::CapIdx cap = 0;
    kernel::SyscallResult r = kernel_.Retype(0, *cspace_, untyped_,
                                             kernel::ObjectType::kFrame, 0, &cap);
    if (!r.ok()) {
      break;
    }
    hw::PAddr base = FrameBase(cap);
    buckets_[ColourOf(kernel_.machine().config(), base)].push_back(cap);
    ++got;
  }
  return got;
}

std::optional<kernel::CapIdx> ColourPool::TakeFrame(const std::set<std::size_t>& colours) {
  if (fault_frame_.armed() && !colours.empty()) {
    // An eligible event is a constrained request made after some *other*
    // colour set has been served: the mis-placed frame then lands in a
    // partition another domain actually owns.
    std::size_t wrong = buckets_.size();
    for (const std::set<std::size_t>& earlier : request_sets_) {
      if (earlier == colours) {
        continue;
      }
      for (std::size_t c : earlier) {
        if (c < buckets_.size() && colours.find(c) == colours.end()) {
          wrong = c;
          break;
        }
      }
      if (wrong < buckets_.size()) {
        break;
      }
    }
    if (wrong < buckets_.size() && fault_frame_.FireOnce()) {
      if (buckets_[wrong].empty()) {
        Refill(4 * buckets_.size());
      }
      if (!buckets_[wrong].empty()) {
        kernel::CapIdx cap = buckets_[wrong].front();
        buckets_[wrong].pop_front();
        return cap;
      }
    }
  }
  if (fault_frame_.armed() && !colours.empty()) {
    bool seen = false;
    for (const std::set<std::size_t>& earlier : request_sets_) {
      seen = seen || earlier == colours;
    }
    if (!seen) {
      request_sets_.push_back(colours);
    }
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (colours.empty()) {
      for (auto& bucket : buckets_) {
        if (!bucket.empty()) {
          kernel::CapIdx cap = bucket.front();
          bucket.pop_front();
          return cap;
        }
      }
    } else {
      for (std::size_t c : colours) {
        if (c < buckets_.size() && !buckets_[c].empty()) {
          kernel::CapIdx cap = buckets_[c].front();
          buckets_[c].pop_front();
          return cap;
        }
      }
    }
    // Pull in a full colour cycle's worth so every bucket gains frames.
    if (Refill(4 * buckets_.size()) == 0) {
      break;
    }
  }
  return std::nullopt;
}

std::size_t ColourPool::Available(std::size_t colour) const {
  return colour < buckets_.size() ? buckets_[colour].size() : 0;
}

hw::PAddr ColourPool::FrameBase(kernel::CapIdx frame_cap) const {
  const kernel::Capability& cap = cspace_->At(frame_cap);
  return kernel_.objects().As<kernel::FrameObj>(cap.obj).base;
}

}  // namespace tp::core
