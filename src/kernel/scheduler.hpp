// Priority scheduler with a constant-time highest-priority lookup, matching
// the shared kernel data of paper §4.1: an array of per-priority ready-queue
// heads (4 KiB) plus a find-first-set bitmap (32 B). These structures are
// shared across all kernel images — they are exactly the state the
// domain-switch sequence prefetches for determinism (Requirement 3).
//
// Domains are time-multiplexed round-robin at preemption-tick granularity
// (seL4's domain scheduler); within a domain, highest priority wins and
// equal priorities round-robin.
#ifndef TP_KERNEL_SCHEDULER_HPP_
#define TP_KERNEL_SCHEDULER_HPP_

#include <array>
#include <cstdint>
#include <vector>

#include "hw/types.hpp"
#include "kernel/types.hpp"

namespace tp::kernel {

class Scheduler {
 public:
  static constexpr std::size_t kNumPriorities = 256;

  void Enqueue(ObjId tcb, std::uint8_t priority, DomainId domain);
  void Dequeue(ObjId tcb, std::uint8_t priority, DomainId domain);
  bool IsQueued(ObjId tcb, std::uint8_t priority, DomainId domain) const;

  // Highest-priority thread of `domain`, rotated to the queue tail
  // (round-robin), or kNullObj if the domain has no runnable thread.
  ObjId PickAndRotate(DomainId domain);
  ObjId Peek(DomainId domain) const;

  // Priorities (bitmap words) the last Pick touched; the kernel cost model
  // charges the corresponding shared-data lines.
  std::uint8_t last_picked_priority() const { return last_picked_priority_; }

 private:
  // A vector, not a deque: a libstdc++ deque allocates ~0.6 KB even when
  // empty, and all but a few of the 256 queues per domain stay empty (a
  // kernel with three domains held 0.55 MB of empty deques). Queues hold a
  // handful of threads, so the front erase in PickAndRotate is cheap.
  struct PrioQueue {
    std::vector<ObjId> q;
  };
  // Queues are per (domain, priority); the bitmap summarises which
  // priorities are non-empty for each domain.
  std::vector<std::array<PrioQueue, kNumPriorities>> queues_;
  std::vector<std::array<std::uint64_t, 4>> bitmap_;
  std::uint8_t last_picked_priority_ = 0;

  void EnsureDomain(DomainId domain);
};

}  // namespace tp::kernel

#endif  // TP_KERNEL_SCHEDULER_HPP_
