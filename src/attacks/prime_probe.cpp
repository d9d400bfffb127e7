#include "attacks/prime_probe.hpp"

#include <algorithm>
#include <vector>

namespace tp::attacks {

namespace {
// Senders stop transmitting after this many bursts so a slice is never
// saturated (keeps slice boundaries crisp for the receiver).
constexpr std::size_t kMaxBursts = 24;
}  // namespace

namespace {

// Flat membership mask over the cache's per-slice set indices: the builders
// test every line of a large buffer against `target_sets`, so a bitmap
// beats a tree lookup.
std::vector<std::uint8_t> TargetSetMask(const hw::SetAssociativeCache& cache,
                                        const std::set<std::size_t>& target_sets) {
  std::vector<std::uint8_t> mask(cache.geometry().SetsPerSlice(), 0);
  for (std::size_t set : target_sets) {
    if (set < mask.size()) {
      mask[set] = 1;
    }
  }
  return mask;
}

}  // namespace

EvictionSet EvictionSet::Build(const hw::SetAssociativeCache& cache,
                               const core::MappedBuffer& buffer,
                               const std::set<std::size_t>& target_sets,
                               std::size_t lines_per_set, bool by_vaddr) {
  EvictionSet es;
  const std::vector<std::uint8_t> wanted = TargetSetMask(cache, target_sets);
  std::vector<std::size_t> taken(wanted.size(), 0);
  std::vector<std::uint8_t> touched(wanted.size(), 0);
  std::size_t line = cache.geometry().line_size;
  for (const auto& [va_page, pa_page] : buffer.pages) {
    for (std::size_t off = 0; off < hw::kPageSize; off += line) {
      std::uint64_t index_addr = by_vaddr ? va_page + off : pa_page + off;
      std::size_t set = cache.SetIndexOf(index_addr);
      if (wanted[set] == 0) {
        continue;
      }
      if (touched[set] == 0) {
        touched[set] = 1;
        ++es.covered_sets_;
      }
      if (taken[set] >= lines_per_set) {
        continue;
      }
      ++taken[set];
      es.lines_.push_back(va_page + off);
    }
  }
  return es;
}

EvictionSet EvictionSet::BuildSliced(const hw::SetAssociativeCache& cache,
                                     const core::MappedBuffer& buffer,
                                     const std::set<std::size_t>& target_sets,
                                     std::size_t lines_per_slice_set) {
  EvictionSet es;
  const std::vector<std::uint8_t> wanted = TargetSetMask(cache, target_sets);
  const std::size_t sets_per_slice = wanted.size();
  std::vector<std::size_t> taken(sets_per_slice * cache.geometry().num_slices, 0);
  std::size_t line = cache.geometry().line_size;
  for (const auto& [va_page, pa_page] : buffer.pages) {
    for (std::size_t off = 0; off < hw::kPageSize; off += line) {
      hw::PAddr pa = pa_page + off;
      std::size_t set = cache.SetIndexOf(pa);
      if (wanted[set] == 0) {
        continue;
      }
      std::size_t& n = taken[cache.SliceOf(pa) * sets_per_slice + set];
      if (n >= lines_per_slice_set) {
        continue;
      }
      if (n == 0) {
        ++es.covered_sets_;
      }
      ++n;
      es.lines_.push_back(va_page + off);
    }
  }
  return es;
}

double CacheProbeReceiver::MeasureAndPrime(kernel::UserApi& api) {
  // Alternate traversal direction every round (Mastik's zig-zag): probing
  // in insertion order under LRU cascades — one foreign line per set makes
  // every subsequent probe of that set miss — so the probe must meet its
  // own lines MRU-first. Both directions are precomputed address lists
  // issued as one batch per probe.
  if (reversed_lines_.empty() && !eviction_set_.lines().empty()) {
    reversed_lines_.assign(eviction_set_.lines().rbegin(), eviction_set_.lines().rend());
  }
  const std::vector<hw::VAddr>& lines = reverse_ ? reversed_lines_ : eviction_set_.lines();
  hw::Cycles t0 = api.Now();
  if (instruction_side_) {
    api.FetchBatch(lines);
  } else {
    api.ReadBatch(lines);
  }
  reverse_ = !reverse_;
  return static_cast<double>(api.Now() - t0);
}

hw::Cycles CacheSetSender::QuiescentCycles(int symbol, std::size_t burst) const {
  return burst >= kMaxBursts || symbol == 0 || lines_per_symbol_ == 0 ? kIdleCycles : 0;
}

void CacheSetSender::Transmit(kernel::UserApi& api, int symbol, std::size_t /*burst*/) {
  // Record once per symbol, replay every burst: the trace is a pure
  // function of the symbol, so later bursts skip the address-generation
  // loop entirely.
  if (traces_.empty()) {
    traces_.resize(static_cast<std::size_t>(num_symbols()));
  }
  std::vector<hw::VAddr>& trace = traces_[static_cast<std::size_t>(symbol)];
  const std::size_t lines = static_cast<std::size_t>(symbol) * lines_per_symbol_;
  if (trace.size() != lines) {
    trace.clear();
    trace.reserve(lines);
    for (std::size_t i = 0; i < lines; ++i) {
      trace.push_back(base_ + (i * line_size_) % buffer_bytes_);
    }
  }
  if (instruction_side_) {
    api.FetchBatch(trace);
  } else if (writes_) {
    api.WriteBatch(trace);
  } else {
    api.ReadBatch(trace);
  }
}

hw::Cycles PrefetchTrainSender::QuiescentCycles(int symbol, std::size_t burst) const {
  return burst >= kMaxBursts || symbol == 0 ? kIdleCycles : 0;
}

void PrefetchTrainSender::Transmit(kernel::UserApi& api, int symbol, std::size_t burst) {
  const std::size_t region = 64 * 1024;  // far apart: one stream-table slot each
  const std::size_t delta = 6 * line_size_;  // per-burst stream advance
  if (symbol == trace_symbol_ && burst == trace_burst_ + 1) {
    // Replay: the next burst of the same symbol advances every stream by
    // one fixed delta; applying it in place (with the single wrap the
    // modulo would take, delta < buffer) reproduces the rebuilt trace
    // exactly without re-decoding the address pattern.
    for (hw::VAddr& va : trace_) {
      va += delta;
      if (va >= base_ + buffer_bytes_) {
        va -= buffer_bytes_;
      }
    }
  } else if (symbol != trace_symbol_ || burst != trace_burst_) {
    trace_.clear();
    for (int s = 0; s < symbol; ++s) {
      for (std::size_t k = 0; k < 6; ++k) {
        trace_.push_back(base_ + (s * region + (burst * 6 + k) * line_size_) % buffer_bytes_);
      }
    }
  }
  trace_symbol_ = symbol;
  trace_burst_ = burst;
  api.ReadBatch(trace_);
}

double TlbProbeReceiver::MeasureAndPrime(kernel::UserApi& api) {
  if (probe_addrs_.empty() && pages_ > 0) {
    for (std::size_t p = 0; p < pages_; ++p) {
      probe_addrs_.push_back(base_ + p * hw::kPageSize);  // one integer per page (§5.3.2)
    }
  }
  hw::Cycles t0 = api.Now();
  api.ReadBatch(probe_addrs_);
  return static_cast<double>(api.Now() - t0);
}

hw::Cycles TlbSender::QuiescentCycles(int symbol, std::size_t burst) const {
  return burst >= kMaxBursts || symbol == 0 || pages_per_symbol_ == 0 ? kIdleCycles : 0;
}

void TlbSender::Transmit(kernel::UserApi& api, int symbol, std::size_t /*burst*/) {
  // Recorded once per symbol, replayed thereafter (see CacheSetSender).
  if (traces_.empty()) {
    traces_.resize(static_cast<std::size_t>(num_symbols()));
  }
  std::vector<hw::VAddr>& trace = traces_[static_cast<std::size_t>(symbol)];
  const std::size_t pages = static_cast<std::size_t>(symbol) * pages_per_symbol_;
  if (trace.size() != pages) {
    trace.clear();
    trace.reserve(pages);
    for (std::size_t p = 0; p < pages; ++p) {
      trace.push_back(base_ + (p * hw::kPageSize) % buffer_bytes_);
    }
  }
  api.ReadBatch(trace);
}

double BtbProbeReceiver::MeasureAndPrime(kernel::UserApi& api) {
  hw::Cycles t0 = api.Now();
  // Densely packed jumps (4-byte spacing) walk consecutive BTB sets, as the
  // paper's chained-branch probing buffer does.
  for (std::size_t i = 0; i < branches_; ++i) {
    hw::VAddr pc = pc_base_ + i * 4;
    api.Branch(pc, pc + 32, /*taken=*/true, /*conditional=*/false);
  }
  return static_cast<double>(api.Now() - t0);
}

hw::Cycles BtbSender::QuiescentCycles(int symbol, std::size_t burst) const {
  return burst >= kMaxBursts || symbol == 0 || branches_per_symbol_ == 0 ? kIdleCycles : 0;
}

void BtbSender::Transmit(kernel::UserApi& api, int symbol, std::size_t /*burst*/) {
  std::size_t branches = static_cast<std::size_t>(symbol) * branches_per_symbol_;
  for (std::size_t i = 0; i < branches; ++i) {
    hw::VAddr pc = alias_base_ + i * 4;
    api.Branch(pc, pc + 48, /*taken=*/true, /*conditional=*/false);
  }
}

namespace {
// Gshare indexes the PHT with pc ^ history; driving the GHR to all-taken
// before the probed branch pins both parties to the same PHT entry.
void NormalizeHistory(kernel::UserApi& api, hw::VAddr scratch_pc) {
  for (int i = 0; i < 16; ++i) {
    api.Branch(scratch_pc + i * 4, scratch_pc + 128, /*taken=*/true, /*conditional=*/true);
  }
}
}  // namespace

double BhbProbeReceiver::MeasureAndPrime(kernel::UserApi& api) {
  hw::VAddr probe_pc = pc_base_;
  hw::VAddr scratch = pc_base_ + 0x10000;
  hw::Cycles t0 = api.Now();
  for (std::size_t i = 0; i < branches_ / 4; ++i) {
    NormalizeHistory(api, scratch);
    api.Branch(probe_pc, probe_pc + 32, /*taken=*/true, /*conditional=*/true);
  }
  return static_cast<double>(api.Now() - t0);
}

hw::Cycles BhbSender::QuiescentCycles(int /*symbol*/, std::size_t burst) const {
  return burst >= kMaxBursts ? kIdleCycles : 0;
}

void BhbSender::Transmit(kernel::UserApi& api, int symbol, std::size_t /*burst*/) {
  // Take or skip the conditional jump at the shared PC (with normalised
  // history): the residual PHT state is what the receiver senses.
  hw::VAddr probe_pc = pc_base_;
  hw::VAddr scratch = pc_base_ + 0x10000;
  bool taken = symbol >= 2;
  for (std::size_t i = 0; i < trains_ / 8; ++i) {
    NormalizeHistory(api, scratch);
    api.Branch(probe_pc, probe_pc + 32, taken, /*conditional=*/true);
  }
}

}  // namespace tp::attacks
