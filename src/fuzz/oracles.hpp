// The invariant-oracle set behind tp_fuzz: RunCase executes one FuzzCase
// under its target's oracle and reports the first violated invariant;
// GenerateCase derives a randomized case deterministically from a seed.
//
// Targets and the invariants they check:
//   soa         — SoA cache/TLB vs the retained AoS reference models:
//                 per-op bit-equivalence (hit/fill/writeback/victim) and
//                 final counters over random geometries and op mixes, plus
//                 Validate()/constructor agreement on invalid geometries.
//   replay      — one program, three executions: batch replay on (default),
//                 TP_NO_REPLAY, and per-op dispatch must agree on cycles,
//                 every perf counter, per-structure stats and StateDigest.
//   taint       — a randomized multi-domain time-shared system under a
//                 contract-honouring scenario must tally clean, and every
//                 TaintMap's incremental ForeignCount/FindForeign must match
//                 a brute-force walk of its entries.
//   threads     — SweepEngine over a synthetic channel: TP_THREADS=1 vs N
//                 must be bit-identical per cell (observations, MI, CIs,
//                 shard/round accounting, adaptive stopping decisions).
//   digest      — scoped state digests: a step that moves no stats of a
//                 structure must leave that structure's digest unchanged;
//                 the ScopedDigest cache must agree with the uncached fold.
//   trajectory  — the forgiving JSON parser: never crashes, reports sane
//                 "offset N:" errors, accepts everything an independent
//                 strict validator accepts, and successfully parsed
//                 documents survive a serialize/reparse round trip.
//   inclusion   — random accesses on random cores of a 2-4 core machine,
//                 interleaved with every private and whole-cache flush
//                 (with and without the LLC): after every step the
//                 InclusionChecker property below holds.
//   quiescent   — a random channel pair (family, platform, placement,
//                 scenario, timeslice, RunFor chunks) driven by
//                 Kernel::RunUntil and by the per-step StepCore loop must
//                 agree on observations, per-core cycles and perf counters,
//                 domain switches and StateDigest (CompareQuiescent below).
//   clone       — a random experiment (platform, placement, scenario,
//                 timeslice, colour fraction) cloned after a random prefix
//                 of random set-up ops: the source and the clone, each
//                 finishing the ops and running a kernel-channel tail, must
//                 both match a build that was never cloned (CompareClone).
#ifndef TP_FUZZ_ORACLES_HPP_
#define TP_FUZZ_ORACLES_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/time_protection.hpp"
#include "fuzz/fuzz_case.hpp"
#include "hw/machine.hpp"
#include "hw/perf_counter.hpp"
#include "kernel/kernel.hpp"

namespace tp::fuzz {

struct OracleResult {
  bool ok = true;       // invariants held (or the case was skipped)
  bool skipped = false;  // case rejected by validation before any oracle ran
  std::string message;   // first violated invariant when !ok

  static OracleResult Violation(std::string message) {
    OracleResult r;
    r.ok = false;
    r.message = std::move(message);
    return r;
  }
  static OracleResult Skipped() {
    OracleResult r;
    r.skipped = true;
    return r;
  }
};

// Executes `c` under its target's oracle set. Any unexpected exception is
// itself reported as a violation (reject-don't-crash is one of the
// invariants under test).
OracleResult RunCase(const FuzzCase& c);

// The inclusive-LLC property of the cache model, checked by brute force:
// every valid line in a core's L1-I, L1-D and private L2 is also in the
// LLC. An LLC eviction keeps it by back-invalidating the victim from every
// core. The one legal exception is a whole-LLC flush (FullCacheFlush with
// the LLC), which leaves the other cores' private lines behind: a core
// whose private caches held lines at such a flush is "stranded" and exempt
// until its private caches are next seen empty.
class InclusionChecker {
 public:
  explicit InclusionChecker(hw::Machine& machine) : machine_(machine) {}
  // Call after every step; `flushed_llc` when the step flushed the whole
  // LLC. Returns "" when the property holds, else the first violating line.
  std::string Check(bool flushed_llc);
  // Bit k set: core k is stranded.
  std::uint64_t stranded() const { return stranded_; }

 private:
  hw::Machine& machine_;
  std::uint64_t stranded_ = 0;
};

// Deterministic case generation: the same (target, case_seed) always yields
// the same case, on any host.
FuzzCase GenerateCase(Target target, std::uint64_t case_seed);

// "" when the counters agree, else "<field> <a> vs <b>" for the first field
// that differs.
std::string DiffPerfCounters(const hw::PerfCounters& a, const hw::PerfCounters& b);

// --- quiescent: Kernel::RunUntil vs the per-step StepCore loop ------------

// One channel family per SymbolSender/SliceReceiver pair of src/attacks.
enum class QuiescentFamily {
  kL1D,           // CacheSetSender (writes) + CacheProbeReceiver
  kL1I,           // CacheSetSender (fetches) + CacheProbeReceiver
  kL2,            // PrefetchTrainSender + CacheProbeReceiver (Sabre: its LLC)
  kTlb,           // TlbSender + TlbProbeReceiver
  kBtb,           // BtbSender + BtbProbeReceiver
  kBhb,           // BhbSender + BhbProbeReceiver
  kKernel,        // KernelChannelSender + KernelProbeReceiver
  kFlushOffline,  // DirtyLineSender + FlushTimingReceiver (offline time)
  kFlushOnline,   // DirtyLineSender + FlushTimingReceiver (online time)
  kInterrupt,     // TimerTrojan + InterruptSpy
};
inline constexpr std::size_t kQuiescentFamilies = 10;
const char* QuiescentFamilyName(QuiescentFamily family);

struct QuiescentSpec {
  QuiescentFamily family = QuiescentFamily::kL1D;
  bool sabre = false;      // Haswell (x86) or Sabre (Arm)
  bool same_core = true;   // false: sender on core 0, receiver on core 1
  core::Scenario scenario = core::Scenario::kRaw;
  double timeslice_ms = 0.1;
  std::vector<std::uint64_t> chunks = {16};  // RunFor lengths, in eighths of a slice
  double irq_delay_ticks = 1.3;              // interrupt family: Trojan timer delay
  std::uint64_t seed = 1;
};

struct QuiescentOutcome {
  std::string diff;  // "" when the two runs agree
  // Steps of each program that the RunUntil run fast-forwarded.
  std::uint64_t sender_fast_forwarded = 0;
  std::uint64_t receiver_fast_forwarded = 0;
};

// Builds the channel pair twice and runs the chunks once through
// Kernel::RunUntil and once through StepwiseRunUntil, then compares.
QuiescentOutcome CompareQuiescent(const QuiescentSpec& spec);

// The per-step reference for Kernel::RunUntil: StepCore on the lowest-clock
// core, ties to the lowest index, until every clock has reached `until`.
void StepwiseRunUntil(kernel::Kernel& kernel, hw::Cycles until);

// --- clone: Experiment::Clone vs a build that was never cloned -----------

struct CloneSpec {
  bool sabre = false;
  bool same_core = true;  // false: two cores, receiver on core 1
  core::Scenario scenario = core::Scenario::kRaw;
  double timeslice_ms = 0.1;
  double colour_fraction = 1.0;
  // Set-up ops (src/fuzz/clone.cpp ApplyOp): buffers (some starting a new
  // page-table leaf, some growing the domain's newest buffer),
  // notifications, endpoints, vspaces from a domain's pool or the kernel's
  // untyped pool, frames mapped into the latter, and idle kernel runs.
  std::vector<std::uint64_t> ops;
  // The tail: the kernel channel over a small probe buffer (after the
  // ops), or a channel's own set-up (one more step after the ops) and run.
  enum class Tail { kKernel, kIntraCoreL1d, kFlush };
  Tail tail = Tail::kKernel;
  // Steps (ops, then a channel tail's set-up) applied before the clone.
  std::size_t clone_point = 0;
  std::uint64_t seed = 1;  // the tail's sender seed
};

// "" when the source and the clone both finish like the reference build,
// else the first difference.
std::string CompareClone(const CloneSpec& spec);

}  // namespace tp::fuzz

#endif  // TP_FUZZ_ORACLES_HPP_
