#include "host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

namespace perfbench {

namespace {

constexpr std::uint32_t kEntries = 1u << 16;  // 256 KiB of uint32_t
constexpr std::uint32_t kStepsPerRun = 1u << 18;

}  // namespace

RefKernel::RefKernel() : next_(kEntries) {
  // Sattolo's algorithm: one cycle through every entry, so the chase
  // visits the whole working set before it repeats.
  std::vector<std::uint32_t> order(kEntries);
  for (std::uint32_t i = 0; i < kEntries; ++i) order[i] = i;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = kEntries - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto j = static_cast<std::uint32_t>((state >> 33) % i);
    std::swap(order[i], order[j]);
  }
  for (std::uint32_t i = 0; i < kEntries; ++i)
    next_[order[i]] = order[(i + 1) % kEntries];
}

double RefKernel::run_ms() {
  // Untimed linear pass first: the timed chase then starts from a warm
  // cache whatever the timed work before it left there.
  std::uint64_t acc = checksum_ | 1;
  for (const std::uint32_t v : next_) acc += v;
  const std::int64_t t0 = now_ns();
  std::uint32_t p = cursor_;
  for (std::uint32_t s = 0; s < kStepsPerRun; ++s) {
    p = next_[p];
    acc = (acc ^ p) * 0xff51afd7ed558ccdULL;
    acc ^= acc >> 29;
  }
  cursor_ = p;
  checksum_ = acc;
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

double host_scale(double ref_ms) {
  return std::pow(kRefNominalMs / ref_ms, kRefExponent);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double load_average_1m() {
  double load[1] = {-1.0};
  if (getloadavg(load, 1) != 1) return -1.0;
  return load[0];
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
