#include "hcep/traffic/slo.hpp"

#include <algorithm>
#include <array>

#include "hcep/util/error.hpp"
#include "hcep/util/stats.hpp"

namespace hcep::traffic {

LatencySummary LatencySummary::from_samples(std::vector<double>& samples_s) {
  std::sort(samples_s.begin(), samples_s.end());
  const std::span<const double> run(samples_s);
  return from_sorted_runs({&run, 1});
}

LatencySummary LatencySummary::from_sorted_runs(
    std::span<const std::span<const double>> runs) {
  LatencySummary out;
  // Read heads of the non-empty runs.
  std::vector<std::span<const double>> heads;
  for (const auto& r : runs) {
    require(std::is_sorted(r.begin(), r.end()),
            "LatencySummary::from_sorted_runs: run is not ascending");
    out.count += r.size();
    if (!r.empty()) heads.push_back(r);
  }
  if (out.count == 0) return out;

  // The six positions the three percentiles read, in walk order.
  const std::array<PercentileRank, 3> ranks = {
      percentile_rank(out.count, 50.0), percentile_rank(out.count, 95.0),
      percentile_rank(out.count, 99.0)};
  std::array<std::size_t, 6> at{};
  for (std::size_t q = 0; q < ranks.size(); ++q) {
    at[2 * q] = ranks[q].lo;
    at[2 * q + 1] = ranks[q].hi;
  }
  std::sort(at.begin(), at.end());
  std::array<double, 6> at_value{};

  // Merge walk: the smallest head is the next value of the sorted
  // concatenation (ties are equal doubles, so which run yields one does
  // not matter), hence the sum accumulates in the same order as a sort.
  double sum = 0.0;
  double v = 0.0;
  std::size_t next = 0;
  for (std::size_t pos = 0; pos < out.count; ++pos) {
    std::size_t best = 0;
    for (std::size_t h = 1; h < heads.size(); ++h)
      if (heads[h].front() < heads[best].front()) best = h;
    v = heads[best].front();
    heads[best] = heads[best].subspan(1);
    if (heads[best].empty()) {
      heads[best] = heads.back();
      heads.pop_back();
    }
    sum += v;
    while (next < at.size() && at[next] == pos) at_value[next++] = v;
  }

  const auto value_at = [&](std::size_t pos) {
    return at_value[static_cast<std::size_t>(
        std::find(at.begin(), at.end(), pos) - at.begin())];
  };
  const auto percentile_of = [&](const PercentileRank& r) {
    return Seconds{r.value(value_at(r.lo), value_at(r.hi))};
  };
  out.mean = Seconds{sum / static_cast<double>(out.count)};
  out.p50 = percentile_of(ranks[0]);
  out.p95 = percentile_of(ranks[1]);
  out.p99 = percentile_of(ranks[2]);
  out.max = Seconds{v};
  return out;
}

JsonValue LatencySummary::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("count", JsonValue::number(static_cast<std::int64_t>(count)));
  o.set("mean_s", JsonValue::number(mean.value()));
  o.set("p50_s", JsonValue::number(p50.value()));
  o.set("p95_s", JsonValue::number(p95.value()));
  o.set("p99_s", JsonValue::number(p99.value()));
  o.set("max_s", JsonValue::number(max.value()));
  return o;
}

double ClassStats::violation_fraction() const {
  if (completed == 0) return 0.0;
  return static_cast<double>(slo_violations) /
         static_cast<double>(completed);
}

bool ClassStats::slo_met() const {
  if (!slo.enabled() || completed == 0) return true;
  // The target quantile must sit at or below the latency objective:
  // equivalently, the violating fraction must fit into 1 - quantile.
  return violation_fraction() <= (1.0 - slo.quantile) + 1e-12;
}

JsonValue ClassStats::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("name", JsonValue::string(name));
  o.set("offered", JsonValue::number(static_cast<std::int64_t>(offered)));
  o.set("admitted", JsonValue::number(static_cast<std::int64_t>(admitted)));
  o.set("shed", JsonValue::number(static_cast<std::int64_t>(shed)));
  o.set("retries", JsonValue::number(static_cast<std::int64_t>(retries)));
  o.set("completed",
        JsonValue::number(static_cast<std::int64_t>(completed)));
  o.set("failed", JsonValue::number(static_cast<std::int64_t>(failed)));
  o.set("slo_violations",
        JsonValue::number(static_cast<std::int64_t>(slo_violations)));
  if (slo.enabled()) {
    JsonValue s = JsonValue::object();
    s.set("latency_s", JsonValue::number(slo.latency.value()));
    s.set("quantile", JsonValue::number(slo.quantile));
    s.set("met", JsonValue::boolean(slo_met()));
    o.set("slo", std::move(s));
  }
  o.set("wait", wait.to_json());
  o.set("service", service.to_json());
  o.set("sojourn", sojourn.to_json());
  o.set("energy_per_request_j",
        JsonValue::number(energy_per_request.value()));
  return o;
}

}  // namespace hcep::traffic
