#include "hcep/obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <thread>

#include "hcep/util/error.hpp"

namespace hcep::obs {

namespace {

std::uint64_t next_registry_serial() {
  static std::atomic<std::uint64_t> serial{1};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local shard cache, most recently used first. Keyed by the
/// registry's process-unique serial (not its address) so a registry
/// destroyed and another allocated at the same address can never alias a
/// stale shard pointer. Bounded: entries of dead or idle registries age
/// out instead of lengthening every lookup, and a miss falls back to the
/// registry's own shard list.
struct ShardRef {
  std::uint64_t serial = 0;
  void* shard = nullptr;
};
struct ShardCache {
  std::array<ShardRef, MetricsRegistry::kThreadCacheCapacity> refs{};
  std::size_t size = 0;
};
thread_local ShardCache t_shards;

}  // namespace

MetricsRegistry::MetricsRegistry(std::size_t slot_capacity)
    : slot_capacity_(slot_capacity), serial_(next_registry_serial()) {
  require(slot_capacity_ > 0, "MetricsRegistry: zero slot capacity");
  // The fast path indexes descriptors_ without locking; reserving the
  // full capacity guarantees push_back never reallocates underneath it.
  descriptors_.reserve(slot_capacity_);
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  ShardCache& cache = t_shards;
  const auto begin = cache.refs.begin();
  for (std::size_t i = 0; i < cache.size; ++i) {
    if (cache.refs[i].serial != serial_) continue;
    std::rotate(begin, begin + static_cast<std::ptrdiff_t>(i),
                begin + static_cast<std::ptrdiff_t>(i + 1));
    return *static_cast<Shard*>(cache.refs[0].shard);
  }
  Shard* raw = owned_shard();
  cache.size = std::min(cache.size + 1, cache.refs.size());
  std::rotate(begin, begin + static_cast<std::ptrdiff_t>(cache.size - 1),
              begin + static_cast<std::ptrdiff_t>(cache.size));
  cache.refs[0] = ShardRef{serial_, raw};
  return *raw;
}

MetricsRegistry::Shard* MetricsRegistry::owned_shard() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard lock(mutex_);
  for (const auto& shard : shards_)
    if (shard->owner == self) return shard.get();
  auto shard = std::make_unique<Shard>();
  shard->owner = self;
  shard->u64 =
      std::make_unique<std::atomic<std::uint64_t>[]>(slot_capacity_);
  shard->f64 = std::make_unique<std::atomic<double>[]>(slot_capacity_);
  for (std::size_t i = 0; i < slot_capacity_; ++i) {
    shard->u64[i].store(0, std::memory_order_relaxed);
    shard->f64[i].store(0.0, std::memory_order_relaxed);
  }
  shards_.push_back(std::move(shard));
  return shards_.back().get();
}

std::size_t MetricsRegistry::thread_cache_size() { return t_shards.size; }

MetricId MetricsRegistry::find_or_register(std::string_view name, Kind kind,
                                           std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < descriptors_.size(); ++i) {
    if (descriptors_[i].name != name) continue;
    require(descriptors_[i].kind == kind,
            "MetricsRegistry: metric '" + std::string(name) +
                "' re-registered with a different kind");
    require(kind != Kind::kHistogram || descriptors_[i].bounds == bounds,
            "MetricsRegistry: histogram '" + std::string(name) +
                "' re-registered with different bounds");
    return static_cast<MetricId>(i);
  }
  require(descriptors_.size() < slot_capacity_,
          "MetricsRegistry: metric capacity exhausted");

  Descriptor d;
  d.name = std::string(name);
  d.kind = kind;
  switch (kind) {
    case Kind::kCounter: {
      require(next_u64_ + 1 <= slot_capacity_,
              "MetricsRegistry: slot capacity exhausted");
      d.slot = static_cast<std::uint32_t>(next_u64_);
      next_u64_ += 1;
      break;
    }
    case Kind::kGauge: {
      gauges_.emplace_back();
      gauges_.back().store(0.0, std::memory_order_relaxed);
      d.gauge = &gauges_.back();
      break;
    }
    case Kind::kHistogram: {
      require(!bounds.empty(), "MetricsRegistry: histogram without bounds");
      require(std::is_sorted(bounds.begin(), bounds.end()) &&
                  std::adjacent_find(bounds.begin(), bounds.end()) ==
                      bounds.end(),
              "MetricsRegistry: histogram bounds must strictly ascend");
      // bounds.size() + 1 buckets (incl. overflow) plus a count slot.
      require(next_u64_ + bounds.size() + 2 <= slot_capacity_ &&
                  next_f64_ + 1 <= slot_capacity_,
              "MetricsRegistry: slot capacity exhausted");
      d.slot = static_cast<std::uint32_t>(next_u64_);
      next_u64_ += bounds.size() + 2;
      d.sum_slot = static_cast<std::uint32_t>(next_f64_);
      next_f64_ += 1;
      d.bounds = std::move(bounds);
      break;
    }
  }
  descriptors_.push_back(std::move(d));
  return static_cast<MetricId>(descriptors_.size() - 1);
}

MetricId MetricsRegistry::counter(std::string_view name) {
  return find_or_register(name, Kind::kCounter, {});
}

MetricId MetricsRegistry::gauge(std::string_view name) {
  return find_or_register(name, Kind::kGauge, {});
}

MetricId MetricsRegistry::histogram(std::string_view name,
                                    std::vector<double> bounds) {
  return find_or_register(name, Kind::kHistogram, std::move(bounds));
}

void MetricsRegistry::add(MetricId id, std::uint64_t n) {
  const Descriptor& d = descriptors_[id];
  // Only this thread writes its shard, so plain load+store (not CAS) is
  // race-free; snapshot() reads the same atomics relaxed.
  std::atomic<std::uint64_t>& slot = local_shard().u64[d.slot];
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void MetricsRegistry::set(MetricId id, double value) {
  descriptors_[id].gauge->store(value, std::memory_order_relaxed);
}

void MetricsRegistry::observe(MetricId id, double value) {
  const Descriptor& d = descriptors_[id];
  Shard& shard = local_shard();
  const auto it =
      std::lower_bound(d.bounds.begin(), d.bounds.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - d.bounds.begin());
  std::atomic<std::uint64_t>& b = shard.u64[d.slot + bucket];
  b.store(b.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
  std::atomic<std::uint64_t>& c =
      shard.u64[d.slot + d.bounds.size() + 1];
  c.store(c.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
  std::atomic<double>& s = shard.f64[d.sum_slot];
  s.store(s.load(std::memory_order_relaxed) + value,
          std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot out;
  for (const Descriptor& d : descriptors_) {
    switch (d.kind) {
      case Kind::kCounter: {
        std::uint64_t total = 0;
        for (const auto& shard : shards_)
          total += shard->u64[d.slot].load(std::memory_order_relaxed);
        out.counters.emplace_back(d.name, total);
        break;
      }
      case Kind::kGauge: {
        out.gauges.emplace_back(d.name,
                                d.gauge->load(std::memory_order_relaxed));
        break;
      }
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.name = d.name;
        h.bounds = d.bounds;
        h.counts.assign(d.bounds.size() + 1, 0);
        for (const auto& shard : shards_) {
          for (std::size_t b = 0; b <= d.bounds.size(); ++b) {
            h.counts[b] +=
                shard->u64[d.slot + b].load(std::memory_order_relaxed);
          }
          h.count += shard->u64[d.slot + d.bounds.size() + 1].load(
              std::memory_order_relaxed);
          h.sum += shard->f64[d.sum_slot].load(std::memory_order_relaxed);
        }
        out.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < slot_capacity_; ++i) {
      shard->u64[i].store(0, std::memory_order_relaxed);
      shard->f64[i].store(0.0, std::memory_order_relaxed);
    }
  }
  for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0,
          "HistogramSnapshot::quantile: q outside [0, 1]");
  if (count == 0 || counts.empty()) return 0.0;
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= rank || i + 1 == counts.size()) {
      if (i >= bounds.size()) return bounds.back();  // overflow bucket
      if (i == 0) return bounds[0];  // no lower edge recorded
      const double lo = bounds[i - 1];
      const double hi = bounds[i];
      const double fraction =
          std::min(1.0, std::max(0.0, (rank - cumulative) / in_bucket));
      return lo + (hi - lo) * fraction;
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

double MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return 0.0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

JsonValue MetricsSnapshot::to_json() const {
  JsonValue root = JsonValue::object();
  JsonValue cs = JsonValue::object();
  for (const auto& [n, v] : counters)
    cs.set(n, JsonValue::number(static_cast<std::int64_t>(v)));
  root.set("counters", std::move(cs));
  JsonValue gs = JsonValue::object();
  for (const auto& [n, v] : gauges) gs.set(n, JsonValue::number(v));
  root.set("gauges", std::move(gs));
  JsonValue hs = JsonValue::object();
  for (const auto& h : histograms) {
    JsonValue one = JsonValue::object();
    JsonValue bounds = JsonValue::array();
    for (double b : h.bounds) bounds.push(JsonValue::number(b));
    one.set("bounds", std::move(bounds));
    JsonValue counts = JsonValue::array();
    for (std::uint64_t c : h.counts)
      counts.push(JsonValue::number(static_cast<std::int64_t>(c)));
    one.set("counts", std::move(counts));
    // The +Inf remainder, spelled out so consumers need not know that
    // counts carries one more entry than bounds.
    one.set("overflow",
            JsonValue::number(static_cast<std::int64_t>(h.overflow())));
    one.set("count",
            JsonValue::number(static_cast<std::int64_t>(h.count)));
    one.set("sum", JsonValue::number(h.sum));
    hs.set(h.name, std::move(one));
  }
  root.set("histograms", std::move(hs));
  return root;
}

}  // namespace hcep::obs
