// Benchmark-side tracing: spans recorded around calls into each layer,
// kept in memory and written out once the run ends, plus the percentile
// summary the per-layer timings are reported with.
#ifndef PERFBENCH_TRACE_HPP_
#define PERFBENCH_TRACE_HPP_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t NowNs();

// One reported metric: its name, value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Span {
  std::string name;  // layer-qualified, e.g. "attacks.shard"
  std::string id;    // workload or cell the span belongs to
  int parent = -1;   // index into the trace, -1 for a root span
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

// Spans of one run. Thread-safe so that a shard body may open spans from a
// pool worker; the benchmark itself runs its grids on one thread.
class Trace {
 public:
  // Opens a span starting now and returns its index.
  int Begin(std::string name, std::string id, int parent);
  void End(int index);
  // Adds a finished span; Begin uses it, and so do tests.
  int Add(Span span);

  // Summed duration of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  // Summed self time of every span called `name`, in seconds: each span's
  // duration minus the part of its interval that its direct children
  // cover (overlapping children are counted once).
  double SelfSeconds(const std::string& name) const;

  // The spans as a JSON array, one object per line.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Opens a span on construction and closes it on destruction; a null trace
// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, std::string id, int parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Trace* trace_;
  int index_ = -1;
};

// A timing sample reported as its median and the highest percentile that
// still has at least ten samples beyond it, with the sample count. With
// fewer than eleven samples there is no such percentile: tail_pct is 0 and
// tail equals max.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  double max = 0.0;
};

Summary Summarize(std::vector<double> samples);

// Median of a non-empty sample; 0 for an empty one.
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP_
