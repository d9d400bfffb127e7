#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

int Trace::Begin(std::string name, std::string id, int parent) {
  Span span{std::move(name), std::move(id), parent, NowNs(), 0};
  return Add(std::move(span));
}

void Trace::End(int index) {
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(index)).end_ns = now;
}

int Trace::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

double Trace::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      ns += s.duration_ns();
    }
  }
  return static_cast<double>(ns) / 1e9;
}

double Trace::SelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::uint64_t self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) {
      continue;
    }
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start_ns;
    for (const auto& [start, end] : kids) {
      const std::uint64_t lo = std::max(start, cursor);
      const std::uint64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self += s.duration_ns() - covered;
  }
  return static_cast<double>(self) / 1e9;
}

std::string Trace::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names and ids are scenario, spec and grid-cell names: no quotes
    // or control characters to escape.
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": \"" + s.name + "\", \"id\": \"" + s.id + "\"";
    std::snprintf(buf, sizeof(buf), ", \"parent\": %d, \"start_ns\": %llu, \"end_ns\": %llu}",
                  s.parent, static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns));
    out += buf;
  }
  out += "\n]\n";
  return out;
}

ScopedSpan::ScopedSpan(Trace* trace, std::string name, std::string id, int parent)
    : trace_(trace) {
  if (trace_ != nullptr) {
    index_ = trace_->Begin(std::move(name), std::move(id), parent);
  }
}

ScopedSpan::~ScopedSpan() {
  if (trace_ != nullptr) {
    trace_->End(index_);
  }
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  s.p50 = Median(samples);
  s.max = samples.back();
  s.tail = s.max;
  if (s.n >= 11) {
    // samples[n - 11] has exactly ten samples above it.
    s.tail = samples[s.n - 11];
    s.tail_pct = 100.0 * static_cast<double>(s.n - 10) / static_cast<double>(s.n);
  }
  return s;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

}  // namespace perfbench
