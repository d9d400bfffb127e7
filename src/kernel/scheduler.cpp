#include "kernel/scheduler.hpp"

#include <algorithm>

namespace tp::kernel {

void Scheduler::EnsureDomain(DomainId domain) {
  if (queues_.size() <= domain) {
    queues_.resize(domain + 1);
    bitmap_.resize(domain + 1);
  }
}

void Scheduler::Enqueue(ObjId tcb, std::uint8_t priority, DomainId domain) {
  EnsureDomain(domain);
  std::vector<ObjId>& q = queues_[domain][priority].q;
  if (std::find(q.begin(), q.end(), tcb) == q.end()) {
    q.push_back(tcb);
  }
  bitmap_[domain][priority / 64] |= std::uint64_t{1} << (priority % 64);
}

void Scheduler::Dequeue(ObjId tcb, std::uint8_t priority, DomainId domain) {
  EnsureDomain(domain);
  std::vector<ObjId>& q = queues_[domain][priority].q;
  q.erase(std::remove(q.begin(), q.end(), tcb), q.end());
  if (q.empty()) {
    bitmap_[domain][priority / 64] &= ~(std::uint64_t{1} << (priority % 64));
  }
}

bool Scheduler::IsQueued(ObjId tcb, std::uint8_t priority, DomainId domain) const {
  if (queues_.size() <= domain) {
    return false;
  }
  const std::vector<ObjId>& q = queues_[domain][priority].q;
  return std::find(q.begin(), q.end(), tcb) != q.end();
}

ObjId Scheduler::PickAndRotate(DomainId domain) {
  if (queues_.size() <= domain) {
    return kNullObj;
  }
  for (int word = 3; word >= 0; --word) {
    std::uint64_t bits = bitmap_[domain][word];
    if (bits == 0) {
      continue;
    }
    int bit = 63 - __builtin_clzll(bits);
    std::uint8_t prio = static_cast<std::uint8_t>(word * 64 + bit);
    std::vector<ObjId>& q = queues_[domain][prio].q;
    // Round-robin within the priority: the head moves to the tail.
    std::rotate(q.begin(), q.begin() + 1, q.end());
    const ObjId head = q.back();
    last_picked_priority_ = prio;
    return head;
  }
  return kNullObj;
}

ObjId Scheduler::Peek(DomainId domain) const {
  if (queues_.size() <= domain) {
    return kNullObj;
  }
  for (int word = 3; word >= 0; --word) {
    std::uint64_t bits = bitmap_[domain][word];
    if (bits == 0) {
      continue;
    }
    int bit = 63 - __builtin_clzll(bits);
    std::uint8_t prio = static_cast<std::uint8_t>(word * 64 + bit);
    return queues_[domain][prio].q.front();
  }
  return kNullObj;
}

}  // namespace tp::kernel
