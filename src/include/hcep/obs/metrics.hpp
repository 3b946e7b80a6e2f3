// Low-overhead metrics: counters, gauges and fixed-bucket histograms.
//
// The paper's methodology is measurement-first: perf counters plus a
// sampling wattmeter over every run. The simulated substrate needs the
// same discipline, but instrumentation must not perturb what it measures
// — sweeps evaluate tens of thousands of configurations and the DES
// processes millions of events. The registry therefore keeps one shard
// of plain slots per writing thread: the hot path is a relaxed load/store
// on the calling thread's own slot (no CAS, no lock, no false sharing
// with other writers) and snapshot() merges the shards on demand.
//
// Registration (name -> id) takes a mutex and is meant to happen once per
// run; call sites cache the returned MetricId and pass it to the
// lock-free add()/observe()/set() fast path.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hcep/util/json.hpp"

namespace hcep::obs {

/// Handle to a registered metric; stable for the registry's lifetime.
using MetricId = std::uint32_t;

/// Merged view of one histogram: `counts` has bounds.size() + 1 entries,
/// the last being the overflow bucket (values > bounds.back()).
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;  ///< inclusive upper bounds, ascending
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Count in the implicit overflow bucket — observations above
  /// bounds.back(), i.e. the Prometheus `le="+Inf"` remainder.
  [[nodiscard]] std::uint64_t overflow() const {
    return counts.empty() ? 0 : counts.back();
  }

  /// Quantile estimate for q in [0, 1], linearly interpolated within the
  /// bucket holding rank q*count. The first bucket collapses to its upper
  /// bound (no lower edge is recorded) and ranks landing in the overflow
  /// bucket return bounds.back() — both conservative, both deterministic.
  /// Returns 0 for an empty histogram. The rollup engine's p95 and the
  /// run-report latency summaries use this estimator.
  [[nodiscard]] double quantile(double q) const;
};

/// Point-in-time merge of every shard.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of a named counter (zero when absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Value of a named gauge (zero when absent).
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Named histogram, or nullptr when absent.
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const;

  [[nodiscard]] JsonValue to_json() const;
};

class MetricsRegistry {
 public:
  /// `slot_capacity` bounds the total number of 64-bit slots (counters
  /// cost 1, a histogram with B bounds costs B + 2); fixing it up front
  /// is what lets shards be plain preallocated arrays the fast path can
  /// index without any synchronization against later registrations.
  explicit MetricsRegistry(std::size_t slot_capacity = 1024);
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register-or-lookup by name (locked; cache the id).
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  /// `bounds` are inclusive upper bucket edges, strictly ascending; an
  /// overflow bucket is added implicitly. Re-registration with different
  /// bounds throws.
  MetricId histogram(std::string_view name, std::vector<double> bounds);

  /// Lock-free fast path: bumps the calling thread's shard slot.
  void add(MetricId id, std::uint64_t n = 1);
  /// Last-writer-wins shared gauge store.
  void set(MetricId id, double value);
  /// Lock-free fast path: buckets `value` into the thread's shard.
  void observe(MetricId id, double value);

  /// Merges every shard; safe to call while writers are active (relaxed
  /// reads — the snapshot is a consistent-enough monitoring view, exact
  /// once writers are quiescent).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every shard slot and gauge (writers must be quiescent).
  void reset();

  /// Registries each thread keeps a direct shard pointer for; a thread
  /// updating more registries than this finds the rest under the lock.
  static constexpr std::size_t kThreadCacheCapacity = 8;
  /// Entries in the calling thread's shard cache (at most the capacity).
  [[nodiscard]] static std::size_t thread_cache_size();

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Descriptor {
    std::string name;
    Kind kind;
    std::uint32_t slot = 0;      ///< first u64 slot (counter/histogram)
    std::uint32_t sum_slot = 0;  ///< f64 slot (histogram sum)
    /// Shared gauge cell (stable deque element address), captured at
    /// registration so the fast path never walks the deque.
    std::atomic<double>* gauge = nullptr;
    std::vector<double> bounds;
  };
  struct Shard {
    std::thread::id owner;  ///< the only thread that writes this shard
    std::unique_ptr<std::atomic<std::uint64_t>[]> u64;
    std::unique_ptr<std::atomic<double>[]> f64;
  };

  Shard& local_shard();
  /// The calling thread's shard, found or created under the lock.
  Shard* owned_shard();
  MetricId find_or_register(std::string_view name, Kind kind,
                            std::vector<double> bounds);

  const std::size_t slot_capacity_;
  const std::uint64_t serial_;  ///< process-unique, keys thread caches

  mutable std::mutex mutex_;  ///< guards registration and the shard list
  std::vector<Descriptor> descriptors_;  ///< reserved; never reallocates
  std::size_t next_u64_ = 0;
  std::size_t next_f64_ = 0;
  std::deque<std::atomic<double>> gauges_;  ///< stable element addresses
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hcep::obs
