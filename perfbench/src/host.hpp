// Host instruments: a fixed reference kernel that measures how fast the
// host runs right now, a monotonic clock, peak RSS and load average.
//
// Every host-time metric is reported as raw * host_scale(ref_ms), where
// ref_ms is the reference kernel's time measured right next to the timed
// work. The kernel never calls hcep, so a slower program passes through
// this scaling 1:1 while a slower host cancels out.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Reference-kernel time on the host the benchmark was calibrated on
/// (4-vCPU Xeon VM, g++ 12 Release). A constant, so normalized metrics
/// keep their natural units; it never changes once published.
inline constexpr double kRefNominalMs = 1.5;

/// Elasticity of the workloads' times to the kernel's across host
/// phases. On the calibration host a phase that slows the kernel by x %
/// slowed the calls by about 2x %: least squares on block medians of
/// log(call) against log(reference) gave 1.5 (sweep), 2.7 (traffic) and
/// 2-4 (fleet), and 2 minimised the spread of normalized block medians
/// over the three together. The elasticity varies with the kind of host
/// phase (README.md, "Steadiness record").
inline constexpr double kRefExponent = 2.0;

/// Host-normalization factor for a timing whose adjacent reference run
/// took `ref_ms`: (kRefNominalMs / ref_ms)^kRefExponent.
[[nodiscard]] double host_scale(double ref_ms);

/// Integer ALU work plus dependent loads over a 256 KiB working set
/// after an untimed warming pass: a random cyclic permutation chased
/// with a multiply-xorshift mix per step. Built once with a fixed seed,
/// so every run does the same work. On the calibration host a 256 KiB
/// chase tracked the sweep's host-speed phases best; a 1 MiB one was
/// evicted by neighbours sharing the core and tracked them worse.
class RefKernel {
 public:
  RefKernel();
  /// Runs the kernel once and returns its wall time in milliseconds.
  double run_ms();

 private:
  std::vector<std::uint32_t> next_;
  std::uint64_t checksum_ = 0;  ///< carries each run's result forward
  std::uint32_t cursor_ = 0;
};

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

/// Peak resident set size of this process in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// One-minute load average, or -1 when unavailable.
[[nodiscard]] double load_average_1m();

/// Quantile with linear interpolation between order statistics
/// (numpy's default). Returns 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench
