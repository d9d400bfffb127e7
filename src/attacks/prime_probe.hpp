// Prime&probe machinery and the intra-core channel programs of paper §5.3.2
// (Table 3): L1-D, L1-I, L2/LLC, TLB, BTB and BHB channels, built in the
// style of Mastik (Yarom 2017).
#ifndef TP_ATTACKS_PRIME_PROBE_HPP_
#define TP_ATTACKS_PRIME_PROBE_HPP_

#include <cstdint>
#include <set>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "core/domain.hpp"
#include "hw/cache.hpp"

namespace tp::attacks {

// An eviction set: virtual addresses from the attacker's buffer chosen so
// that touching them displaces the victim's lines from the target sets.
class EvictionSet {
 public:
  // Lines covering `target_sets` of `cache`, up to `lines_per_set` lines
  // each. `by_vaddr` selects virtual-address indexing (L1) vs physical.
  static EvictionSet Build(const hw::SetAssociativeCache& cache,
                           const core::MappedBuffer& buffer,
                           const std::set<std::size_t>& target_sets,
                           std::size_t lines_per_set, bool by_vaddr);

  // Exact (slice, set)-bucketed eviction lines for a sliced LLC:
  // `lines_per_slice_set` lines in *every* slice for each target set.
  static EvictionSet BuildSliced(const hw::SetAssociativeCache& cache,
                                 const core::MappedBuffer& buffer,
                                 const std::set<std::size_t>& target_sets,
                                 std::size_t lines_per_slice_set);

  const std::vector<hw::VAddr>& lines() const { return lines_; }
  std::size_t covered_sets() const { return covered_sets_; }
  bool empty() const { return lines_.empty(); }

 private:
  std::vector<hw::VAddr> lines_;
  std::size_t covered_sets_ = 0;
};

// --- generic cache channel (L1-D, L1-I, L2, LLC) ---------------------------

class CacheProbeReceiver final : public SliceReceiver {
 public:
  CacheProbeReceiver(EvictionSet eviction_set, bool instruction_side, hw::Cycles slice_gap)
      : SliceReceiver(slice_gap),
        eviction_set_(std::move(eviction_set)),
        instruction_side_(instruction_side) {}

 protected:
  double MeasureAndPrime(kernel::UserApi& api) override;

 private:
  EvictionSet eviction_set_;
  std::vector<hw::VAddr> reversed_lines_;  // lazily built reverse traversal
  bool instruction_side_;
  bool reverse_ = false;  // zig-zag traversal to defeat LRU probe-cascade
};

// Sender accessing (symbol * lines_per_symbol) sequential lines of its own
// buffer per burst: in the raw system this collides with the receiver's
// sets; with time protection the same access pattern can only leak through
// hidden state (the prefetcher residual of Table 3).
class CacheSetSender final : public SymbolSender {
 public:
  CacheSetSender(const core::MappedBuffer& buffer, std::size_t lines_per_symbol,
                 std::size_t line_size, bool writes, bool instruction_side, int num_symbols,
                 std::uint64_t seed, hw::Cycles slice_gap)
      : SymbolSender(num_symbols, seed, slice_gap),
        base_(buffer.base),
        buffer_bytes_(buffer.bytes),
        lines_per_symbol_(lines_per_symbol),
        line_size_(line_size),
        writes_(writes),
        instruction_side_(instruction_side) {}

 protected:
  hw::Cycles QuiescentCycles(int symbol, std::size_t burst) const override;
  void Transmit(kernel::UserApi& api, int symbol, std::size_t burst) override;

 private:
  hw::VAddr base_;
  std::size_t buffer_bytes_;
  std::size_t lines_per_symbol_;
  std::size_t line_size_;
  bool writes_;
  bool instruction_side_;
  // Per-symbol replay traces: the address list depends only on the symbol,
  // so it is recorded on first use and replayed on every later burst.
  std::vector<std::vector<hw::VAddr>> traces_;
};

// Trains `symbol` *distinct* sequential streams per burst (several spaced
// regions, a few consecutive misses each): what survives time protection is
// the prefetcher's stream table, so the symbol must modulate the number of
// live streams, not the footprint (paper Table 3's residual L2 channel).
class PrefetchTrainSender final : public SymbolSender {
 public:
  PrefetchTrainSender(const core::MappedBuffer& buffer, std::size_t line_size,
                      int num_symbols, std::uint64_t seed, hw::Cycles slice_gap)
      : SymbolSender(num_symbols, seed, slice_gap),
        base_(buffer.base),
        buffer_bytes_(buffer.bytes),
        line_size_(line_size) {}

 protected:
  hw::Cycles QuiescentCycles(int symbol, std::size_t burst) const override;
  void Transmit(kernel::UserApi& api, int symbol, std::size_t burst) override;

 private:
  hw::VAddr base_;
  std::size_t buffer_bytes_;
  std::size_t line_size_;
  // Replay trace for the current (symbol, burst): rebuilt from scratch on a
  // symbol change, advanced in place by the per-burst stream delta when the
  // burst index just increments (the common case within a slice).
  std::vector<hw::VAddr> trace_;
  int trace_symbol_ = -1;
  std::size_t trace_burst_ = 0;
};

// --- TLB channel ------------------------------------------------------------

class TlbProbeReceiver final : public SliceReceiver {
 public:
  TlbProbeReceiver(const core::MappedBuffer& buffer, std::size_t pages, hw::Cycles slice_gap)
      : SliceReceiver(slice_gap), base_(buffer.base), pages_(pages) {}

 protected:
  double MeasureAndPrime(kernel::UserApi& api) override;

 private:
  hw::VAddr base_;
  std::size_t pages_;
  std::vector<hw::VAddr> probe_addrs_;  // fixed probe sequence, built once
};

class TlbSender final : public SymbolSender {
 public:
  TlbSender(const core::MappedBuffer& buffer, std::size_t pages_per_symbol, int num_symbols,
            std::uint64_t seed, hw::Cycles slice_gap)
      : SymbolSender(num_symbols, seed, slice_gap),
        base_(buffer.base),
        buffer_bytes_(buffer.bytes),
        pages_per_symbol_(pages_per_symbol) {}

 protected:
  hw::Cycles QuiescentCycles(int symbol, std::size_t burst) const override;
  void Transmit(kernel::UserApi& api, int symbol, std::size_t burst) override;

 private:
  hw::VAddr base_;
  std::size_t buffer_bytes_;
  std::size_t pages_per_symbol_;
  // Per-symbol replay traces (see CacheSetSender).
  std::vector<std::vector<hw::VAddr>> traces_;
};

// --- branch-predictor channels (BTB, BHB) -----------------------------------

class BtbProbeReceiver final : public SliceReceiver {
 public:
  BtbProbeReceiver(hw::VAddr pc_base, std::size_t branches, hw::Cycles slice_gap)
      : SliceReceiver(slice_gap), pc_base_(pc_base), branches_(branches) {}

 protected:
  double MeasureAndPrime(kernel::UserApi& api) override;

 private:
  hw::VAddr pc_base_;
  std::size_t branches_;
};

// Occupies (symbol * branches_per_symbol) BTB entries aliasing the
// receiver's sets (same index, different tag).
class BtbSender final : public SymbolSender {
 public:
  BtbSender(hw::VAddr alias_base, std::size_t branches_per_symbol, int num_symbols,
            std::uint64_t seed, hw::Cycles slice_gap)
      : SymbolSender(num_symbols, seed, slice_gap),
        alias_base_(alias_base),
        branches_per_symbol_(branches_per_symbol) {}

 protected:
  hw::Cycles QuiescentCycles(int symbol, std::size_t burst) const override;
  void Transmit(kernel::UserApi& api, int symbol, std::size_t burst) override;

 private:
  hw::VAddr alias_base_;
  std::size_t branches_per_symbol_;
};

// Residual-state BHB channel (Evtyushkin et al. 2016): the sender takes or
// skips conditional jumps; the receiver senses the pattern-history state
// through the latency of its own conditional jumps at aliasing PCs.
class BhbProbeReceiver final : public SliceReceiver {
 public:
  BhbProbeReceiver(hw::VAddr pc_base, std::size_t branches, hw::Cycles slice_gap)
      : SliceReceiver(slice_gap), pc_base_(pc_base), branches_(branches) {}

 protected:
  double MeasureAndPrime(kernel::UserApi& api) override;

 private:
  hw::VAddr pc_base_;
  std::size_t branches_;
};

class BhbSender final : public SymbolSender {
 public:
  BhbSender(hw::VAddr pc_base, std::size_t trains_per_burst, int num_symbols,
            std::uint64_t seed, hw::Cycles slice_gap)
      : SymbolSender(num_symbols, seed, slice_gap),
        pc_base_(pc_base),
        trains_(trains_per_burst) {}

 protected:
  hw::Cycles QuiescentCycles(int symbol, std::size_t burst) const override;
  void Transmit(kernel::UserApi& api, int symbol, std::size_t burst) override;

 private:
  hw::VAddr pc_base_;
  std::size_t trains_;
};

}  // namespace tp::attacks

#endif  // TP_ATTACKS_PRIME_PROBE_HPP_
