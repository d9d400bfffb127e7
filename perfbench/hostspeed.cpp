#include "hostspeed.hpp"

#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

namespace perfbench {
namespace {

constexpr std::size_t kMaxCalibrations = std::size_t{1} << 16;
constexpr std::size_t kBufferWords = std::size_t{1} << 21;  // 16 MiB
constexpr int kKernelLoads = 40000;
constexpr int kIntegerSteps = 25000;
// Calibrations on each side of a stretch of work whose median sets its speed.
constexpr std::size_t kWindow = 6;

Calibration g_log[kMaxCalibrations];
std::atomic<std::size_t> g_count{0};
std::unique_ptr<std::uint64_t[]> g_buffer;
volatile sig_atomic_t g_busy = 0;
volatile std::uint64_t g_sink = 0;
struct sigaction g_previous_action{};

std::uint64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Independent loads from fixed pseudo-random places in a buffer larger than
// a host core's private caches, with the address arithmetic between them.
// The simulator's own state is megabytes of cache and TLB models read in
// much this way, so this kernel slows down when other tenants crowd the
// host's shared caches and memory. Its 40,000 loads touch more lines than
// the host core's L2 holds: with half as many it stayed in L2 and did not
// slow down at all while the simulator slowed by 31%.
[[gnu::noinline]] std::uint64_t LoadKernel(const std::uint64_t* buffer) {
  std::uint64_t x = 1;
  std::uint64_t y = 7;
  std::uint64_t h = 0;
  for (int i = 0; i < kKernelLoads / 2; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    y = y * 2862933555777941757ull + 3037000493ull;
    h += buffer[(x >> 30) & (kBufferWords - 1)];
    h ^= buffer[(y >> 30) & (kBufferWords - 1)];
  }
  return h;
}

// Dependent multiplies, shifts and data-dependent branches over a table
// on the stack: the core's own speed, without the memory system.
[[gnu::noinline]] std::uint64_t IntegerKernel(std::uint64_t seed) {
  std::uint64_t table[256];
  for (std::size_t i = 0; i < 256; ++i) {
    table[i] = seed + i * 0x9E3779B97F4A7C15ull;
  }
  std::uint64_t x = seed | 1;
  std::uint64_t h = 0;
  for (int i = 0; i < kIntegerSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::uint64_t& slot = table[(x >> 40) & 255];
    if (((slot ^ x) >> 17) & 1) {
      h += slot;
    } else {
      slot = h ^ (x >> 3);
    }
    h = (h << 5 | h >> 59) ^ (x >> 33);
  }
  return h;
}

void OnTimer(int /*signal*/) { Calibrate(); }

}  // namespace

void Calibrate() {
  if (g_busy != 0) {
    return;
  }
  if (g_buffer == nullptr) {
    return;
  }
  g_busy = 1;
  // The first run brings the kernel's lines back into the host's caches
  // after the simulator has evicted them; the second is the one timed.
  const std::uint64_t start = MonotonicNs();
  g_sink = LoadKernel(g_buffer.get());
  const std::uint64_t timed = MonotonicNs();
  g_sink = LoadKernel(g_buffer.get());
  const std::uint64_t loaded = MonotonicNs();
  g_sink = IntegerKernel(loaded);
  const std::uint64_t end = MonotonicNs();
  const std::size_t n = g_count.load(std::memory_order_relaxed);
  if (n < kMaxCalibrations) {
    g_log[n] = {start, end, {loaded - timed, end - loaded}};
    g_count.store(n + 1, std::memory_order_release);
  }
  g_busy = 0;
}

void StartCalibrationTimer(int period_ms) {
  if (g_buffer == nullptr) {
    g_buffer = std::make_unique<std::uint64_t[]>(kBufferWords);
    for (std::size_t i = 0; i < kBufferWords; ++i) {
      g_buffer[i] = i * 0x9E3779B97F4A7C15ull;
    }
  }
  struct sigaction action{};
  action.sa_handler = OnTimer;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, &g_previous_action);
  itimerval timer{};
  timer.it_interval.tv_sec = period_ms / 1000;
  timer.it_interval.tv_usec = (period_ms % 1000) * 1000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_REAL, &timer, nullptr);
}

void StopCalibrationTimer() {
  itimerval off{};
  setitimer(ITIMER_REAL, &off, nullptr);
  sigaction(SIGALRM, &g_previous_action, nullptr);
}

std::vector<Calibration> Calibrations() {
  const std::size_t n = g_count.load(std::memory_order_acquire);
  return std::vector<Calibration>(g_log, g_log + n);
}

Normalized Normalize(const std::vector<Calibration>& log, std::uint64_t t0_ns,
                     std::uint64_t t1_ns, const SpeedModel& model) {
  Normalized out;
  if (t1_ns <= t0_ns) {
    return out;
  }
  if (log.empty()) {
    out.raw_s = static_cast<double>(t1_ns - t0_ns) / 1e9;
    out.normalized_s = out.raw_s;
    return out;
  }
  // Gap i lies between calibration i-1 and calibration i: gap 0 before the
  // first, gap log.size() after the last.
  std::vector<double> window;
  for (std::size_t i = 0; i <= log.size(); ++i) {
    const std::uint64_t gap_start = i == 0 ? 0 : log[i - 1].end_ns;
    const std::uint64_t gap_end = i == log.size() ? UINT64_MAX : log[i].start_ns;
    const std::uint64_t lo = std::max(gap_start, t0_ns);
    const std::uint64_t hi = std::min(gap_end, t1_ns);
    if (hi <= lo) {
      continue;
    }
    const std::size_t first = i > kWindow ? i - kWindow : 0;
    const std::size_t last = std::min(i + kWindow, log.size());
    double scale = 1.0;
    for (int k = 0; k < kKernels; ++k) {
      window.clear();
      for (std::size_t j = first; j < last; ++j) {
        window.push_back(static_cast<double>(log[j].kernel_ns[k]));
      }
      std::nth_element(window.begin(), window.begin() + window.size() / 2, window.end());
      scale *= std::pow(kReferenceKernelNs[k] / window[window.size() / 2], model.exponent[k]);
    }
    const double work_s = static_cast<double>(hi - lo) / 1e9;
    out.raw_s += work_s;
    out.normalized_s += work_s * scale;
  }
  return out;
}

Normalized MeasureRegion(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return Normalize(Calibrations(), t0_ns, t1_ns);
}

}  // namespace perfbench
