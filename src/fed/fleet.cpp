#include "hcep/fed/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "hcep/obs/obs.hpp"
#include "hcep/obs/run_report.hpp"
#include "hcep/parallel/thread_pool.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"

namespace hcep::fed {

namespace {

constexpr double kJoulesPerKwh = 3.6e6;

/// One routed arrival on its way to the target's stream: the landing
/// instant and class, plus the fleet index the end-to-end join keys on.
struct Landing {
  traffic::Arrival arrival;
  std::uint64_t index = 0;
};

/// One site's share of one class's end-to-end ledger, joined inside the
/// site's task: counts, the transit of each completion in record order
/// (the fold sums them serially, site by site, so the fleet mean keeps
/// its summation order) and the completions' e2e samples, sorted.
struct ClassJoin {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t slo_violations = 0;
  std::vector<Seconds> transits;
  std::vector<double> e2e;
};

/// Per-origin generation: clone the site's process, drive it with the
/// origin's split of the fleet seed, draw the arrival instant first and
/// the class coin second (a fixed draw order is part of the determinism
/// contract). Each origin reads only its own process and RNG, so the
/// origins generate concurrently when `concurrent`. A process never
/// steps back in time, so each stream comes out ascending; one that
/// does not is stable-sorted on its own. The caller k-way merges the
/// streams by time with ties to the lower origin, which is exactly a
/// stable sort of their origin-ordered concatenation.
std::vector<std::vector<traffic::Arrival>> generate_arrivals(
    const std::vector<Site>& sites,
    const std::vector<traffic::TrafficClass>& classes,
    const FleetOptions& options, bool concurrent) {
  double total_weight = 0.0;
  for (const auto& c : classes) {
    require(c.weight > 0.0, "simulate_fleet: class weights must be positive");
    total_weight += c.weight;
  }
  std::vector<std::vector<traffic::Arrival>> streams(sites.size());
  const auto generate = [&](std::size_t o) {
    std::vector<traffic::Arrival>& stream = streams[o];
    stream.reserve(static_cast<std::size_t>(options.requests_per_site));
    auto gen = sites[o].arrivals->clone();
    Rng rng = Rng(options.seed).split(static_cast<unsigned>(o));
    Seconds t{0.0};
    for (std::uint64_t k = 0; k < options.requests_per_site; ++k) {
      t = gen->next(t, rng);
      if (!std::isfinite(t.value())) break;  // exhausted replay trace
      double coin = rng.uniform01() * total_weight;
      std::uint32_t cls = 0;
      for (std::size_t c = 0; c + 1 < classes.size(); ++c) {
        coin -= classes[c].weight;
        if (coin < 0.0) break;
        ++cls;
      }
      stream.push_back(traffic::Arrival{t, cls});
    }
    const auto by_time = [](const traffic::Arrival& a,
                            const traffic::Arrival& b) { return a.t < b.t; };
    if (!std::is_sorted(stream.begin(), stream.end(), by_time))
      std::stable_sort(stream.begin(), stream.end(), by_time);
  };
  if (concurrent) {
    parallel_for(0, sites.size(), generate, 1);
  } else {
    for (std::size_t o = 0; o < sites.size(); ++o) generate(o);
  }
  return streams;
}

}  // namespace

double FleetClassLedger::violation_fraction() const {
  if (completed == 0) return 0.0;
  return static_cast<double>(slo_violations) / static_cast<double>(completed);
}

JsonValue CostWindow::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("t0_s", JsonValue::number(t0.value()));
  o.set("t1_s", JsonValue::number(t1.value()));
  o.set("energy_j", JsonValue::number(energy.value()));
  o.set("cost_usd", JsonValue::number(cost));
  o.set("carbon_g", JsonValue::number(carbon_g));
  return o;
}

JsonValue SiteReport::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("name", JsonValue::string(name));
  o.set("routed", JsonValue::number(static_cast<std::int64_t>(routed)));
  o.set("local", JsonValue::number(static_cast<std::int64_t>(local)));
  o.set("energy_j", JsonValue::number(energy.value()));
  o.set("energy_cost_usd", JsonValue::number(energy_cost));
  o.set("carbon_g", JsonValue::number(carbon_g));
  o.set("traffic", result.to_json());
  return o;
}

JsonValue FleetClassLedger::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("name", JsonValue::string(name));
  o.set("slo_latency_s", JsonValue::number(slo.latency.value()));
  o.set("completed", JsonValue::number(static_cast<std::int64_t>(completed)));
  o.set("failed", JsonValue::number(static_cast<std::int64_t>(failed)));
  o.set("slo_violations",
        JsonValue::number(static_cast<std::int64_t>(slo_violations)));
  o.set("violation_fraction", JsonValue::number(violation_fraction()));
  o.set("mean_transit_s", JsonValue::number(mean_transit.value()));
  o.set("e2e", e2e.to_json());
  return o;
}

JsonValue FleetReport::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("schema_version", JsonValue::number(std::int64_t{1}));
  o.set("router_policy", JsonValue::string(router_policy));
  o.set("seed", JsonValue::number(static_cast<std::int64_t>(seed)));
  o.set("horizon_s", JsonValue::number(horizon.value()));
  o.set("offered", JsonValue::number(static_cast<std::int64_t>(offered)));
  o.set("completed", JsonValue::number(static_cast<std::int64_t>(completed)));
  o.set("failed", JsonValue::number(static_cast<std::int64_t>(failed)));
  o.set("cross_site",
        JsonValue::number(static_cast<std::int64_t>(cross_site)));
  o.set("energy_j", JsonValue::number(energy.value()));
  o.set("energy_cost_usd", JsonValue::number(energy_cost));
  o.set("carbon_g", JsonValue::number(carbon_g));
  JsonValue site_array = JsonValue::array();
  for (const auto& s : sites) site_array.push(s.to_json());
  o.set("sites", std::move(site_array));
  JsonValue class_array = JsonValue::array();
  for (const auto& c : classes) class_array.push(c.to_json());
  o.set("classes", std::move(class_array));
  JsonValue route_rows = JsonValue::array();
  for (const auto& row : routes) {
    JsonValue r = JsonValue::array();
    for (const std::uint64_t count : row)
      r.push(JsonValue::number(static_cast<std::int64_t>(count)));
    route_rows.push(std::move(r));
  }
  o.set("routes", std::move(route_rows));
  JsonValue window_array = JsonValue::array();
  for (const auto& w : cost_windows) window_array.push(w.to_json());
  o.set("cost_windows", std::move(window_array));
  return o;
}

FleetReport simulate_fleet(const std::vector<Site>& sites,
                           const hw::InterSiteNetwork& network,
                           const std::vector<traffic::TrafficClass>& classes,
                           const FleetOptions& options) {
  require(!sites.empty(), "simulate_fleet: need at least one site");
  require(network.size() == sites.size(),
          "simulate_fleet: network size must match site count");
  require(!classes.empty(), "simulate_fleet: need at least one class");
  require(options.requests_per_site > 0,
          "simulate_fleet: requests_per_site must be positive");
  require(options.shards > 0, "simulate_fleet: shards must be positive");
  for (const Site& site : sites)
    require(site.arrivals != nullptr,
            "simulate_fleet: every site needs an arrival process");

  const std::size_t n = sites.size();
  // A single-site federation is exactly a cluster run: every placement
  // is local, every transit zero. The fast path skips the per-request
  // routing log, the request records and the end-to-end join — the
  // ledgers fold directly from the site's per-class stats instead.
  const bool solo = n == 1;

  // Phase A: generate regional streams, merge them by time, route
  // globally. A routed arrival lands in its (target, origin) run.
  const bool concurrent = options.shards > 1 && n > 1;
  std::vector<std::vector<traffic::Arrival>> streams =
      generate_arrivals(sites, classes, options, concurrent);
  std::size_t offered = 0;
  for (const auto& stream : streams) offered += stream.size();
  GlobalRouter router(sites, network, classes, options.router);
  std::vector<std::vector<traffic::Arrival>> assigned(n);
  std::vector<std::vector<std::uint64_t>> fleet_index(n);
  std::vector<std::vector<Landing>> runs;
  if (solo) {
    assigned[0] = std::move(streams[0]);
  } else {
    router.reserve(offered);
    runs.resize(n * n);
    std::vector<std::size_t> head(n, 0);
    for (std::size_t k = 0; k < offered; ++k) {
      std::size_t o = n;
      for (std::size_t j = 0; j < n; ++j) {
        if (head[j] == streams[j].size()) continue;
        if (o == n || streams[j][head[j]].t < streams[o][head[o]].t) o = j;
      }
      const traffic::Arrival& a = streams[o][head[o]++];
      const Assignment asg = router.route(o, a.cls, a.t);
      runs[asg.target * n + o].push_back(
          Landing{traffic::Arrival{asg.t + asg.transit, asg.cls}, asg.index});
    }
    streams = {};
  }

  // Differing transits can reorder landings at a target. Transit is
  // constant per (origin, target) pair, so each (target, origin) run is
  // already ascending by landing time; merging the runs keyed by
  // (landing time, fleet index) yields the stable sort of the target's
  // fleet-ordered stream, and builds the fleet-index join column.
  const auto land = [&](std::size_t s) {
    const std::vector<Landing>* in = runs.data() + s * n;
    std::size_t total = 0;
    for (std::size_t o = 0; o < n; ++o) total += in[o].size();
    assigned[s].reserve(total);
    fleet_index[s].reserve(total);
    std::vector<std::size_t> head(n, 0);
    for (std::size_t k = 0; k < total; ++k) {
      const Landing* best = nullptr;
      std::size_t from = 0;
      for (std::size_t o = 0; o < n; ++o) {
        if (head[o] == in[o].size()) continue;
        const Landing& l = in[o][head[o]];
        if (best == nullptr || l.arrival.t < best->arrival.t ||
            (l.arrival.t == best->arrival.t && l.index < best->index)) {
          best = &l;
          from = o;
        }
      }
      ++head[from];
      assigned[s].push_back(best->arrival);
      fleet_index[s].push_back(best->index);
    }
    for (std::size_t o = 0; o < n; ++o) runs[s * n + o] = {};
  };

  // Phase B: replay each site's share on its own cluster. Each run is a
  // deterministic single-engine simulation; options.shards only decides
  // whether the independent runs execute serially or on the pool. Each
  // task also joins its terminal request records back to the routing
  // log (record index -> fleet index -> assignment) and judges SLOs on
  // transit + sojourn.
  std::vector<traffic::TrafficResult> results(n);
  std::vector<std::vector<ClassJoin>> joins(n);
#if HCEP_OBS
  std::vector<obs::MetricsSnapshot> snapshots(n);
#endif
  const auto run_site = [&](std::size_t s) {
    if (!solo) land(s);
    traffic::TrafficOptions site_options;
    site_options.policy = options.policy;
    site_options.admission = options.admission;
    site_options.retry = options.retry;
    site_options.seed =
        options.seed + 0x9e3779b97f4a7c15ULL *
                           (static_cast<std::uint64_t>(s) + 1);
    site_options.control = sites[s].control;
    site_options.stream = options.stream;
    site_options.record_requests = !solo;  // solo folds from class stats
#if HCEP_OBS
    obs::Observer local;
    obs::ScopedObserver install(local);
#endif
    results[s] =
        traffic::simulate_traffic(sites[s].cluster, classes, assigned[s],
                                  site_options);
#if HCEP_OBS
    snapshots[s] = local.metrics.snapshot();
#endif
    if (solo) return;
    std::vector<ClassJoin>& join = joins[s];
    join.resize(classes.size());
    for (const traffic::RequestRecord& rec : results[s].requests) {
      ClassJoin& cj = join[rec.cls];
      if (rec.failed != 0) {
        ++cj.failed;
        continue;
      }
      const Assignment& asg = router.assignments()[fleet_index[s][rec.index]];
      const Seconds e2e = asg.transit + rec.sojourn;
      ++cj.completed;
      cj.transits.push_back(asg.transit);
      cj.e2e.push_back(e2e.value());
      const traffic::SloTarget& slo = classes[rec.cls].slo;
      if (slo.enabled() && e2e > slo.latency) ++cj.slo_violations;
    }
    for (ClassJoin& cj : join) std::sort(cj.e2e.begin(), cj.e2e.end());
  };
  if (concurrent) {
    parallel_for(0, n, run_site, 1);
  } else {
    for (std::size_t s = 0; s < n; ++s) run_site(s);
  }

  // Phase C: fold the per-site ledgers into the fleet report.
  FleetReport report;
  report.router_policy = route_policy_name(options.router.policy);
  report.seed = options.seed;
  report.offered = static_cast<std::uint64_t>(offered);
  for (std::size_t s = 0; s < n; ++s)
    report.horizon = std::max(report.horizon, results[s].makespan);

  report.routes.assign(n, std::vector<std::uint64_t>(n, 0));
  if (solo) {
    report.routes[0][0] = static_cast<std::uint64_t>(offered);
  } else {
    for (const Assignment& a : router.assignments()) {
      ++report.routes[a.origin][a.target];
      if (a.origin != a.target) ++report.cross_site;
    }
  }

  const bool streamed = options.stream.enabled();
  report.sites.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    const traffic::TrafficResult& r = results[s];
    SiteReport site;
    site.name = sites[s].name;
    site.routed = r.offered;
    site.local = report.routes[s][s];
    report.completed += r.completed;
    report.failed += r.failed;

    // Early finishers keep drawing their idle floor until the fleet
    // horizon; charge that tail into both the energy and cost ledgers.
    const Watts floor = sites[s].idle_floor();
    const Seconds tail = report.horizon - r.makespan;
    const Joules tail_energy = floor * tail;
    site.energy = r.energy + tail_energy;
    const double tail_cost = floor.value() / kJoulesPerKwh *
                             sites[s].price.integral(r.makespan,
                                                     report.horizon);
    const double tail_carbon = floor.value() / kJoulesPerKwh *
                               sites[s].carbon.integral(r.makespan,
                                                        report.horizon);
    if (streamed && !r.timeline.windows.empty()) {
      // Exact per-window integration: each window's energy priced at
      // the tariff at the window midpoint (clipped to the makespan the
      // integrator itself clipped to).
      double cost = 0.0;
      double carbon = 0.0;
      for (const auto& w : r.timeline.windows) {
        const double t1 = std::min(w.t1.value(), r.makespan.value());
        const Seconds mid{0.5 * (w.t0.value() + t1)};
        cost += w.energy.value() / kJoulesPerKwh * sites[s].price.at(mid);
        carbon += w.energy.value() / kJoulesPerKwh * sites[s].carbon.at(mid);
      }
      site.energy_cost = cost + tail_cost;
      site.carbon_g = carbon + tail_carbon;
    } else {
      // No timeline: price the run's energy at the period-mean tariff.
      site.energy_cost =
          r.energy.value() / kJoulesPerKwh * sites[s].price.mean() +
          tail_cost;
      site.carbon_g =
          r.energy.value() / kJoulesPerKwh * sites[s].carbon.mean() +
          tail_carbon;
    }
    report.energy += site.energy;
    report.energy_cost += site.energy_cost;
    report.carbon_g += site.carbon_g;
    site.result = std::move(results[s]);
    report.sites.push_back(std::move(site));
  }

  // Fleet cost windows: windows align across sites (all timelines start
  // at 0 with the shared width), so summing by index is well-defined.
  // The post-makespan idle tails are NOT in the windows — the window
  // sum plus the tails equals the fleet totals.
  if (streamed) {
    std::size_t max_windows = 0;
    for (const auto& site : report.sites)
      max_windows =
          std::max(max_windows, site.result.timeline.windows.size());
    report.cost_windows.resize(max_windows);
    for (std::size_t s = 0; s < n; ++s) {
      const SiteReport& site = report.sites[s];
      for (const auto& w : site.result.timeline.windows) {
        CostWindow& fleet_window = report.cost_windows[w.index];
        fleet_window.t0 = w.t0;
        fleet_window.t1 = w.t1;
        fleet_window.energy += w.energy;
        const double t1 =
            std::min(w.t1.value(), site.result.makespan.value());
        const Seconds mid{0.5 * (w.t0.value() + t1)};
        fleet_window.cost +=
            w.energy.value() / kJoulesPerKwh * sites[s].price.at(mid);
        fleet_window.carbon_g +=
            w.energy.value() / kJoulesPerKwh * sites[s].carbon.at(mid);
      }
    }
  }

  // Per-class end-to-end ledgers from the per-site joins. Sites fold in
  // index order and transits sum in record order — a fixed fold order,
  // so the ledger is deterministic. The e2e summaries merge the per-site
  // sorted samples, which is bit-identical to summarizing their
  // concatenation.
  report.classes.resize(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    FleetClassLedger& ledger = report.classes[c];
    ledger.name = report.sites.front().result.classes.size() > c
                      ? report.sites.front().result.classes[c].name
                      : "class" + std::to_string(c);
    ledger.slo = classes[c].slo;
  }
  if (solo) {
    // Zero transit everywhere: the end-to-end ledger IS the site's
    // per-class sojourn ledger.
    const auto& stats = report.sites.front().result.classes;
    for (std::size_t c = 0; c < classes.size() && c < stats.size(); ++c) {
      FleetClassLedger& ledger = report.classes[c];
      ledger.completed = stats[c].completed;
      ledger.failed = stats[c].failed;
      ledger.slo_violations = stats[c].slo_violations;
      ledger.e2e = stats[c].sojourn;
    }
  } else {
    std::vector<std::span<const double>> e2e_runs(n);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      FleetClassLedger& ledger = report.classes[c];
      Seconds transit_sum{0.0};
      for (std::size_t s = 0; s < n; ++s) {
        const ClassJoin& cj = joins[s][c];
        ledger.completed += cj.completed;
        ledger.failed += cj.failed;
        ledger.slo_violations += cj.slo_violations;
        for (const Seconds transit : cj.transits) transit_sum += transit;
        e2e_runs[s] = cj.e2e;
      }
      if (ledger.completed > 0)
        ledger.mean_transit = Seconds{transit_sum.value() /
                                      static_cast<double>(ledger.completed)};
      ledger.e2e = traffic::LatencySummary::from_sorted_runs(e2e_runs);
    }
  }

#if HCEP_OBS
  report.metrics = obs::merge_snapshots(snapshots);
#endif
  return report;
}

}  // namespace hcep::fed
