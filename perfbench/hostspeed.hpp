// Host-speed calibration. The benchmark shares a virtual machine with other
// tenants, and how fast that machine runs code drifts by a quarter or more
// over seconds to minutes: the drift shows in user time as much as in wall
// time. To report times that compare across runs, two fixed calibration
// kernels (the benchmark's own code, independent of the simulator) run on the
// benchmark's thread from a timer signal every 50 ms of a timed region, and
// explicitly at the region's ends. Each stretch of work between calibrations
// is scaled by how much slower than their reference times the kernels ran
// around it, through a fitted model (kSpeedModel), and the calibrations' own
// time is left out of the work.
#ifndef PERFBENCH_HOSTSPEED_HPP_
#define PERFBENCH_HOSTSPEED_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// The calibration kernels: independent loads from a buffer larger than a
// core's private caches, and integer arithmetic on a table in the L1 cache.
inline constexpr int kLoadKernel = 0;
inline constexpr int kIntegerKernel = 1;
inline constexpr int kKernels = 2;

// One calibration: the interval it occupied and each kernel's time.
struct Calibration {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t kernel_ns[kKernels] = {};
};

// Each kernel's time at the reference speed: about its time on the 4-vCPU
// Xeon VM the benchmark was written on when that VM runs fast, so that
// normalised times read close to wall times there.
inline constexpr double kReferenceKernelNs[kKernels] = {200e3, 180e3};

// How the simulator's time follows the kernels': work that takes t seconds
// while the kernels take k_i takes t * prod_i (ref_i / k_i)^exponent_i at
// the reference speed. No single kernel tracks the simulator on every
// workload and in every state of the host, and the best exponents differ by
// workload: these were chosen to keep the pass-to-pass spread of all three
// workloads low at once, over runs on a slow and on a fast host (README.md,
// "Noise").
struct SpeedModel {
  double exponent[kKernels];
};
inline constexpr SpeedModel kSpeedModel = {{0.3, 1.1}};

// The load kernel's buffer, resident for the rest of the run once allocated.
inline constexpr double kCalibrationBufferMb = 16.0;

// A timed region's work, with the calibrations inside it left out.
struct Normalized {
  double raw_s = 0.0;         // host seconds of work
  double normalized_s = 0.0;  // the same work at the reference speed
};

// Runs the calibration kernels and logs them. Safe in a signal handler; a call
// made while another is running (a timer tick inside an explicit call), or
// before the timer was first started, does nothing.
void Calibrate();

// Starts or stops a timer that calls Calibrate every `period_ms` of wall
// time. The first start allocates the load kernel's buffer. The process
// must run its timed work on one thread, which then takes the timer's
// signal.
void StartCalibrationTimer(int period_ms);
void StopCalibrationTimer();

// Every calibration logged so far, in time order.
std::vector<Calibration> Calibrations();

// The work in [t0_ns, t1_ns] given calibrations in time order. Each stretch
// of work between calibrations is scaled by `model`, taking each kernel's
// time as its median over the nearest calibrations, up to six on each side
// of the stretch: single kernel times scatter by tens of percent, so one
// pair of neighbours is too few. With no calibration at all the work is
// reported unscaled.
Normalized Normalize(const std::vector<Calibration>& log, std::uint64_t t0_ns,
                     std::uint64_t t1_ns, const SpeedModel& model = kSpeedModel);

// Normalize over the live log. Callers calibrate just before t0 and just
// after t1 so that both ends of the region have a neighbour.
Normalized MeasureRegion(std::uint64_t t0_ns, std::uint64_t t1_ns);

}  // namespace perfbench

#endif  // PERFBENCH_HOSTSPEED_HPP_
