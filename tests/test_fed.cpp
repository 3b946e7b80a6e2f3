// hcep::fed — multi-site federation with energy/carbon-aware routing.
//
// Keystone: a 3-site fleet with phase-shifted diurnal demand, tariffs
// peaking with local load and a capacity-heterogeneous site mix. The
// SLO-aware hybrid router must beat every single-site (pinned) baseline
// AND the static round-robin baseline on BOTH total energy cost and
// per-class end-to-end p99 — the federation counterpart of the paper's
// claim that heterogeneity-aware placement dominates static policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "hcep/fed/curves.hpp"
#include "hcep/fed/fleet.hpp"
#include "hcep/fed/router.hpp"
#include "hcep/fed/site.hpp"
#include "hcep/hw/network.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::fed;

const workload::Workload& wl(const std::string& name) {
  static const auto kCatalog = workload::paper_workloads();
  for (const auto& w : kCatalog)
    if (w.name == name) return w;
  throw std::runtime_error("missing workload " + name);
}

// ------------------------------------------------------------- curves

TEST(Curves, FlatCurveIsConstantEverywhere) {
  const auto c = PiecewiseCurve::flat(0.25);
  EXPECT_DOUBLE_EQ(c.at(Seconds{0.0}), 0.25);
  EXPECT_DOUBLE_EQ(c.at(Seconds{12345.0}), 0.25);
  EXPECT_DOUBLE_EQ(c.mean(), 0.25);
  EXPECT_NEAR(c.integral(Seconds{10.0}, Seconds{110.0}), 25.0, 1e-9);
}

TEST(Curves, InterpolatesAndWrapsPeriodically) {
  // Two knots on a 100 s period: 1.0 at t=10, 3.0 at t=60. Linear in
  // between, linear again across the wrap (60 -> 110==10).
  const PiecewiseCurve c(Seconds{100.0},
                         {{Seconds{10.0}, 1.0}, {Seconds{60.0}, 3.0}});
  EXPECT_DOUBLE_EQ(c.at(Seconds{10.0}), 1.0);
  EXPECT_DOUBLE_EQ(c.at(Seconds{35.0}), 2.0);
  EXPECT_DOUBLE_EQ(c.at(Seconds{60.0}), 3.0);
  EXPECT_DOUBLE_EQ(c.at(Seconds{85.0}), 2.0);  // halfway down the wrap
  // Periodicity: any t and t + period agree.
  for (const double t : {0.0, 7.5, 42.0, 99.0})
    EXPECT_DOUBLE_EQ(c.at(Seconds{t}), c.at(Seconds{t + 100.0})) << t;
}

TEST(Curves, IntegralIsAdditiveAndMatchesMeanOverFullPeriods) {
  const PiecewiseCurve c(Seconds{100.0},
                         {{Seconds{10.0}, 1.0}, {Seconds{60.0}, 3.0}});
  const double full = c.integral(Seconds{0.0}, Seconds{100.0});
  EXPECT_NEAR(full, c.mean() * 100.0, 1e-9);
  EXPECT_NEAR(c.integral(Seconds{0.0}, Seconds{300.0}), 3.0 * full, 1e-9);
  // Additivity over an awkward split straddling a wrap.
  const double a = c.integral(Seconds{35.0}, Seconds{95.0});
  const double b = c.integral(Seconds{95.0}, Seconds{135.0});
  EXPECT_NEAR(a + b, c.integral(Seconds{35.0}, Seconds{135.0}), 1e-9);
}

TEST(Curves, DiurnalCurveIsSeedDeterministicAndPeaksWhereAsked) {
  const Seconds period{86400.0};
  const auto a = make_diurnal_curve(0.10, 0.8, period, Seconds{43200.0},
                                    /*seed=*/7, /*jitter=*/0.05);
  const auto b = make_diurnal_curve(0.10, 0.8, period, Seconds{43200.0},
                                    /*seed=*/7, /*jitter=*/0.05);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  const auto other = make_diurnal_curve(0.10, 0.8, period, Seconds{43200.0},
                                        /*seed=*/8, /*jitter=*/0.05);
  EXPECT_NE(a.to_json().dump(), other.to_json().dump());
  // Without jitter the curve peaks at peak_at and troughs half a period
  // away.
  const auto clean =
      make_diurnal_curve(0.10, 0.8, period, Seconds{43200.0}, 7);
  EXPECT_NEAR(clean.at(Seconds{43200.0}), 0.18, 1e-9);
  EXPECT_NEAR(clean.at(Seconds{0.0}), 0.02, 1e-6);
  EXPECT_GT(clean.at(Seconds{43200.0}), clean.at(Seconds{20000.0}));
}

TEST(Curves, RejectsMalformedKnots) {
  EXPECT_THROW(PiecewiseCurve(Seconds{0.0}, {{Seconds{0.0}, 1.0}}),
               PreconditionError);
  EXPECT_THROW(PiecewiseCurve(Seconds{10.0}, {}), PreconditionError);
  EXPECT_THROW(PiecewiseCurve(Seconds{10.0}, {{Seconds{12.0}, 1.0}}),
               PreconditionError);
  EXPECT_THROW(PiecewiseCurve(Seconds{10.0},
                              {{Seconds{5.0}, 1.0}, {Seconds{5.0}, 2.0}}),
               PreconditionError);
  EXPECT_THROW(PiecewiseCurve(Seconds{10.0}, {{Seconds{1.0}, -0.5}}),
               PreconditionError);
}

/// PiecewiseCurve::at as first written: phase by fmod, then a linear
/// scan for the last knot at or before the phase. Shares no code with
/// the curve's own lookup.
double linear_scan_at(const PiecewiseCurve& c, Seconds t) {
  const auto& k = c.knots();
  const double p = c.period().value();
  const double u = std::fmod(t.value(), p);
  const auto lerp = [u](double a, double va, double b, double vb) {
    return va + (vb - va) * (u - a) / (b - a);
  };
  if (k.size() == 1) return k.front().second;
  if (u < k.front().first.value())
    return lerp(k.back().first.value() - p, k.back().second,
                k.front().first.value(), k.front().second);
  std::size_t i = 0;
  while (i + 1 < k.size() && k[i + 1].first.value() <= u) ++i;
  if (i + 1 == k.size()) {
    const double a = k.back().first.value();
    const double b = k.front().first.value() + p;
    if (b == a) return k.back().second;
    return lerp(a, k.back().second, b, k.front().second);
  }
  return lerp(k[i].first.value(), k[i].second, k[i + 1].first.value(),
              k[i + 1].second);
}

TEST(Curves, LookupMatchesALinearKnotScan) {
  // A curve whose first knot is past zero (so both wrap segments are
  // non-trivial), a seeded diurnal curve (first knot at zero) and a
  // two-knot curve.
  std::vector<PiecewiseCurve> curves;
  {
    Rng rng(41);
    std::vector<std::pair<Seconds, double>> knots;
    double t = 3.5;
    for (int k = 0; k < 37; ++k) {
      knots.emplace_back(Seconds{t}, rng.uniform(0.0, 2.0));
      t += rng.uniform(0.01, 5.0);
    }
    curves.emplace_back(Seconds{t + 2.25}, std::move(knots));
  }
  curves.push_back(make_diurnal_curve(0.10, 0.8, Seconds{86400.0},
                                      Seconds{30000.0}, 9, 0.05));
  curves.emplace_back(Seconds{100.0}, std::vector<std::pair<Seconds, double>>{
                                          {Seconds{10.0}, 1.0},
                                          {Seconds{60.0}, 3.0}});
  for (const PiecewiseCurve& c : curves) {
    const double p = c.period().value();
    std::vector<double> probes;
    for (const auto& [kt, kv] : c.knots()) {
      const double t = kt.value();
      probes.push_back(t);
      probes.push_back(std::nextafter(t, -1.0));
      probes.push_back(std::nextafter(t, p));
      probes.push_back(t + p);  // the same phase one period later
    }
    // Inside the left wrap segment (before the first knot) and the
    // right one (after the last), plus the period's edges.
    const double first = c.knots().front().first.value();
    const double last = c.knots().back().first.value();
    probes.push_back(0.0);
    probes.push_back(0.5 * first);
    probes.push_back(last + 0.25 * (p - last));
    probes.push_back(last + 0.75 * (p - last));
    probes.push_back(std::nextafter(p, 0.0));
    for (const double t : probes) {
      if (t < 0.0) continue;
      EXPECT_EQ(c.at(Seconds{t}), linear_scan_at(c, Seconds{t}))
          << "t = " << t;
    }
  }
}

// ------------------------------------------------------------ network

TEST(InterSiteNetwork, TransitIsZeroOnDiagonalAndLatencyPlusTransfer) {
  auto net = hw::InterSiteNetwork::uniform(3, Seconds{0.04},
                                           BytesPerSecond{1.0e6});
  EXPECT_DOUBLE_EQ(net.transit(1, 1, Bytes{1.0e6}).value(), 0.0);
  EXPECT_NEAR(net.transit(0, 2, Bytes{1.0e6}).value(), 1.04, 1e-12);
  // Zero bandwidth = unconstrained: latency only.
  auto flat = hw::InterSiteNetwork::uniform(3, Seconds{0.04},
                                            BytesPerSecond{0.0});
  EXPECT_NEAR(flat.transit(0, 2, Bytes{1.0e9}).value(), 0.04, 1e-12);
}

TEST(InterSiteNetwork, DirectedLinksAndValidation) {
  hw::InterSiteNetwork net(2);
  net.set_directed_link(0, 1, {Seconds{0.1}, BytesPerSecond{0.0}});
  EXPECT_NEAR(net.transit(0, 1, Bytes{0.0}).value(), 0.1, 1e-12);
  EXPECT_NEAR(net.transit(1, 0, Bytes{0.0}).value(), 0.0, 1e-12);
  EXPECT_THROW(net.set_link(0, 0, {}), PreconditionError);
  EXPECT_THROW((void)net.link(0, 5), PreconditionError);
  EXPECT_THROW(hw::InterSiteNetwork(0), PreconditionError);
}

// --------------------------------------------- diurnal phase offsets

// Satellite property: two diurnal processes whose peak offsets differ
// by half a period see anti-correlated windowed load; a full-period
// offset restores positive correlation.
double windowed_correlation(const traffic::ArrivalProcess& a,
                            const traffic::ArrivalProcess& b,
                            Seconds window, std::size_t windows) {
  const auto count = [&](const traffic::ArrivalProcess& p,
                         std::uint64_t seed) {
    auto gen = p.clone();
    Rng rng(seed);
    std::vector<double> counts(windows, 0.0);
    Seconds t{0.0};
    while (true) {
      t = gen->next(t, rng);
      const auto w =
          static_cast<std::size_t>(t.value() / window.value());
      if (!std::isfinite(t.value()) || w >= windows) break;
      counts[w] += 1.0;
    }
    return counts;
  };
  const auto xs = count(a, 11);
  const auto ys = count(b, 22);
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < windows; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(windows);
  my /= static_cast<double>(windows);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < windows; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  return sxy / std::sqrt(sxx * syy);
}

TEST(DiurnalOffset, HalfPeriodOffsetAntiCorrelatesWindowedArrivals) {
  const Seconds period{240.0};
  const double rate = 40.0;
  const double swing = 0.9;
  const auto base = traffic::make_diurnal(rate, swing, period, Seconds{0.0});
  const auto shifted =
      traffic::make_diurnal(rate, swing, period, Seconds{120.0});
  const auto aligned =
      traffic::make_diurnal(rate, swing, period, Seconds{240.0});
  // 48 windows of 20 s = 4 full periods, ~800 arrivals per window set.
  const double anti =
      windowed_correlation(*base, *shifted, Seconds{20.0}, 48);
  const double pro =
      windowed_correlation(*base, *aligned, Seconds{20.0}, 48);
  EXPECT_LT(anti, -0.5) << "12h-offset sites should anti-correlate";
  EXPECT_GT(pro, 0.5) << "24h-offset sites should correlate";
}

TEST(DiurnalOffset, OffsetShiftsTheProfileLater) {
  // The Seconds overload is documented as rate(t) = unshifted(t - off):
  // the offset process at t == the base process at t - off. Compare
  // windowed counts of base vs shifted-by-quarter against each other
  // shifted by a quarter period.
  const Seconds period{200.0};
  const auto base =
      traffic::make_diurnal(30.0, 0.9, period, Seconds{0.0});
  const auto quarter =
      traffic::make_diurnal(30.0, 0.9, period, Seconds{50.0});
  auto count = [&](const traffic::ArrivalProcess& p) {
    auto gen = p.clone();
    Rng rng(5);
    std::vector<double> counts(40, 0.0);
    Seconds t{0.0};
    while (true) {
      t = gen->next(t, rng);
      const auto w = static_cast<std::size_t>(t.value() / 10.0);
      if (!std::isfinite(t.value()) || w >= counts.size()) break;
      counts[w] += 1.0;
    }
    return counts;
  };
  const auto b = count(*base);
  const auto q = count(*quarter);
  // windows are 10 s, the shift is 5 windows; correlate b[i] vs q[i+5].
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  double mb = 0.0, mq = 0.0;
  const std::size_t n = 35;
  for (std::size_t i = 0; i < n; ++i) {
    mb += b[i];
    mq += q[i + 5];
  }
  mb /= static_cast<double>(n);
  mq /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (b[i] - mb) * (q[i + 5] - mq);
    sxx += (b[i] - mb) * (b[i] - mb);
    syy += (q[i + 5] - mq) * (q[i + 5] - mq);
  }
  EXPECT_GT(sxy / std::sqrt(sxx * syy), 0.5);
}

// ------------------------------------- assigned-arrival traffic path

TEST(AssignedArrivals, ReplaysExplicitStreamAndRecordsOutcomes) {
  const auto cluster = model::make_a9_k10_cluster(0, 2);
  const std::vector<traffic::TrafficClass> classes = {
      {wl("memcached"), 1.0, traffic::SloTarget{}}};
  std::vector<traffic::Arrival> arrivals;
  for (std::uint64_t k = 0; k < 500; ++k)
    arrivals.push_back({Seconds{0.01 * static_cast<double>(k)}, 0});
  traffic::TrafficOptions options;
  options.record_requests = true;
  const auto r = simulate_traffic(cluster, classes, arrivals, options);
  EXPECT_EQ(r.arrival_process, "assigned");
  EXPECT_EQ(r.offered, 500u);
  EXPECT_EQ(r.completed, 500u);
  ASSERT_EQ(r.requests.size(), 500u);
  for (std::size_t k = 0; k < r.requests.size(); ++k) {
    EXPECT_EQ(r.requests[k].index, k);
    EXPECT_EQ(r.requests[k].failed, 0u);
    EXPECT_GT(r.requests[k].sojourn.value(), 0.0);
  }
}

TEST(AssignedArrivals, ValidatesOrderAndClasses) {
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  const std::vector<traffic::TrafficClass> classes = {
      {wl("memcached"), 1.0, traffic::SloTarget{}}};
  traffic::TrafficOptions options;
  const std::vector<traffic::Arrival> unsorted = {{Seconds{1.0}, 0},
                                                  {Seconds{0.0}, 0}};
  EXPECT_THROW((void)simulate_traffic(cluster, classes, unsorted, options),
               PreconditionError);
  const std::vector<traffic::Arrival> bad_class = {{Seconds{0.0}, 3}};
  EXPECT_THROW(
      (void)simulate_traffic(cluster, classes, bad_class, options),
      PreconditionError);
  // Empty streams are legal (a pinned fleet routes zero requests to
  // the non-pinned sites).
  const auto r = simulate_traffic(cluster, classes, {}, options);
  EXPECT_EQ(r.offered, 0u);
  EXPECT_EQ(r.completed, 0u);
}

TEST(AssignedArrivals, RecordingIsObservational) {
  // record_requests must not perturb the core result document.
  const auto cluster = model::make_a9_k10_cluster(0, 2);
  const std::vector<traffic::TrafficClass> classes = {
      {wl("EP"), 1.0, traffic::SloTarget{}}};
  traffic::TrafficOptions options;
  options.requests = 4000;
  options.seed = 99;
  const auto off =
      simulate_traffic(cluster, classes, *traffic::make_poisson(40.0),
                       options);
  options.record_requests = true;
  const auto on =
      simulate_traffic(cluster, classes, *traffic::make_poisson(40.0),
                       options);
  EXPECT_EQ(off.to_json().dump(), on.to_json().dump());
  EXPECT_TRUE(off.requests.empty());
  EXPECT_EQ(on.requests.size(), 4000u);
  // Records cover every request exactly once, sorted by arrival index.
  for (std::size_t k = 0; k < on.requests.size(); ++k)
    EXPECT_EQ(on.requests[k].index, k);
}

// ------------------------------------------------------------- router

struct RouterFixture {
  std::vector<Site> sites;
  hw::InterSiteNetwork network;
  std::vector<traffic::TrafficClass> classes;

  explicit RouterFixture(Seconds latency = Seconds{0.04}) {
    for (int s = 0; s < 3; ++s) {
      Site site;
      site.name = "site" + std::to_string(s);
      site.cluster = model::make_a9_k10_cluster(0, 2);
      site.arrivals = traffic::make_poisson(10.0);
      site.price = PiecewiseCurve::flat(0.10);
      site.carbon = PiecewiseCurve::flat(400.0);
      sites.push_back(std::move(site));
    }
    network = hw::InterSiteNetwork::uniform(3, latency,
                                            BytesPerSecond{0.0});
    classes = {{wl("memcached"), 1.0,
                traffic::SloTarget{Seconds{0.08}, 0.99}}};
  }
};

TEST(GlobalRouter, PinnedAndRoundRobinAreStatic) {
  RouterFixture fx;
  RouterOptions pinned;
  pinned.policy = RoutePolicy::kPinned;
  pinned.pinned_site = 2;
  GlobalRouter router(fx.sites, fx.network, fx.classes, pinned);
  for (int k = 0; k < 5; ++k)
    EXPECT_EQ(router.route(0, 0, Seconds{0.1 * k}).target, 2u);

  RouterOptions rr;
  rr.policy = RoutePolicy::kRoundRobin;
  GlobalRouter rrr(fx.sites, fx.network, fx.classes, rr);
  for (int k = 0; k < 6; ++k)
    EXPECT_EQ(rrr.route(1, 0, Seconds{0.1 * k}).target,
              static_cast<std::uint32_t>(k % 3));
}

TEST(GlobalRouter, NearestStaysLocalAndHybridHonorsTransitGate) {
  RouterFixture fx;
  RouterOptions nearest;
  nearest.policy = RoutePolicy::kNearest;
  GlobalRouter router(fx.sites, fx.network, fx.classes, nearest);
  EXPECT_EQ(router.route(1, 0, Seconds{0.0}).target, 1u);
  EXPECT_DOUBLE_EQ(router.route(1, 0, Seconds{0.1}).transit.value(), 0.0);

  // Hybrid: SLO 0.08 s, slack 0.25 -> remote feasible only under 0.02 s
  // transit; the 0.04 s WAN excludes every remote site, so the class
  // stays local regardless of price.
  RouterOptions hybrid;
  hybrid.policy = RoutePolicy::kSloHybrid;
  hybrid.transit_slack = 0.25;
  GlobalRouter h(fx.sites, fx.network, fx.classes, hybrid);
  for (int k = 0; k < 10; ++k)
    EXPECT_EQ(h.route(2, 0, Seconds{0.01 * k}).target, 2u);
}

TEST(GlobalRouter, CheapestEnergyChasesTheTariffTrough) {
  RouterFixture fx;
  fx.sites[0].price = PiecewiseCurve::flat(0.30);
  fx.sites[1].price = PiecewiseCurve::flat(0.05);
  fx.sites[2].price = PiecewiseCurve::flat(0.20);
  RouterOptions cheap;
  cheap.policy = RoutePolicy::kCheapestEnergy;
  GlobalRouter router(fx.sites, fx.network, fx.classes, cheap);
  EXPECT_EQ(router.route(0, 0, Seconds{0.0}).target, 1u);
  fx.sites[1].carbon = PiecewiseCurve::flat(800.0);
  fx.sites[2].carbon = PiecewiseCurve::flat(100.0);
  RouterOptions green;
  green.policy = RoutePolicy::kLowestCarbon;
  GlobalRouter greener(fx.sites, fx.network, fx.classes, green);
  EXPECT_EQ(greener.route(0, 0, Seconds{0.0}).target, 2u);
}

TEST(GlobalRouter, ParsePolicyRoundTripsAndRejectsUnknown) {
  for (const RoutePolicy p :
       {RoutePolicy::kNearest, RoutePolicy::kRoundRobin, RoutePolicy::kPinned,
        RoutePolicy::kCheapestEnergy, RoutePolicy::kLowestCarbon,
        RoutePolicy::kSloHybrid})
    EXPECT_EQ(parse_route_policy(route_policy_name(p)), p);
  EXPECT_THROW((void)parse_route_policy("teleport"), PreconditionError);
}

/// The slo-hybrid policy as first written: per request it collects the
/// transit-feasible sites, then the load-feasible ones among them, then
/// takes the price argmin. Shares no code with GlobalRouter; the oracle
/// test replays the same streams through both, decision for decision.
class ThreePassHybrid {
 public:
  ThreePassHybrid(const std::vector<Site>& sites,
                  const hw::InterSiteNetwork& network,
                  const std::vector<traffic::TrafficClass>& classes,
                  const RouterOptions& options)
      : sites_(sites),
        classes_(classes),
        options_(options),
        recent_(sites.size()),
        window_work_(sites.size(), 0.0) {
    for (const Site& site : sites) {
      std::vector<double> per_class;
      for (const traffic::TrafficClass& c : classes)
        per_class.push_back(
            1.0 / traffic::cluster_capacity_per_s(site.cluster, {c}));
      work_.push_back(per_class);
    }
    for (std::size_t i = 0; i < sites.size(); ++i)
      for (std::size_t j = 0; j < sites.size(); ++j)
        transit_.push_back(network.transit(i, j, options.request_payload));
  }

  std::size_t route(std::size_t origin, std::uint32_t cls, Seconds t) {
    const std::size_t target = pick(origin, cls, t);
    recent_[target].push_back({t.value(), work_[target][cls]});
    window_work_[target] += work_[target][cls];
    return target;
  }

  [[nodiscard]] std::size_t window_load(std::size_t site) const {
    return recent_[site].size();
  }

 private:
  double load(std::size_t site, Seconds t) {
    auto& window = recent_[site];
    const double cutoff = t.value() - options_.load_window.value();
    while (!window.empty() && window.front().first < cutoff) {
      window_work_[site] -= window.front().second;
      window.pop_front();
    }
    if (window.empty()) window_work_[site] = 0.0;
    return window_work_[site];
  }

  std::size_t pick(std::size_t origin, std::uint32_t cls, Seconds t) {
    const std::size_t n = sites_.size();
    const traffic::SloTarget& slo = classes_[cls].slo;
    std::vector<std::size_t> allowed;
    for (std::size_t j = 0; j < n; ++j) {
      const Seconds tr = transit_[origin * n + j];
      if (slo.enabled() &&
          tr.value() > options_.transit_slack * slo.latency.value())
        continue;
      allowed.push_back(j);
    }
    if (allowed.empty()) return origin;
    std::vector<std::size_t> feasible;
    std::size_t least_loaded = allowed.front();
    double least_load = std::numeric_limits<double>::infinity();
    for (const std::size_t j : allowed) {
      const double utilization =
          (load(j, t) + work_[j][cls]) / options_.load_window.value();
      if (utilization <= options_.headroom) feasible.push_back(j);
      if (utilization < least_load) {
        least_load = utilization;
        least_loaded = j;
      }
    }
    if (feasible.empty()) return least_loaded;
    std::size_t best = feasible.front();
    double best_price = std::numeric_limits<double>::infinity();
    Seconds best_transit{std::numeric_limits<double>::infinity()};
    for (const std::size_t j : feasible) {
      const Seconds tr = transit_[origin * n + j];
      const double price = sites_[j].price.at(t + tr);
      if (price < best_price || (price == best_price && tr < best_transit)) {
        best = j;
        best_price = price;
        best_transit = tr;
      }
    }
    return best;
  }

  const std::vector<Site>& sites_;
  const std::vector<traffic::TrafficClass>& classes_;
  RouterOptions options_;
  std::vector<Seconds> transit_;
  std::vector<std::vector<double>> work_;
  std::vector<std::deque<std::pair<double, double>>> recent_;
  std::vector<double> window_work_;
};

/// Replays a seeded stream (nondecreasing instants with repeats, random
/// origins and classes) through GlobalRouter and the three-pass oracle;
/// returns how many decisions left their origin.
std::size_t expect_router_matches_oracle(
    const std::vector<Site>& sites, const hw::InterSiteNetwork& network,
    const std::vector<traffic::TrafficClass>& classes,
    const RouterOptions& options, double mean_gap, std::uint64_t seed) {
  GlobalRouter router(sites, network, classes, options);
  ThreePassHybrid oracle(sites, network, classes, options);
  Rng rng(seed);
  double t = 0.0;
  std::size_t moved = 0;
  for (int k = 0; k < 4000; ++k) {
    if (rng.uniform01() > 0.2) t += rng.exponential(1.0 / mean_gap);
    const auto origin =
        static_cast<std::size_t>(rng.uniform_int(sites.size()));
    const auto cls =
        static_cast<std::uint32_t>(rng.uniform_int(classes.size()));
    const Assignment a = router.route(origin, cls, Seconds{t});
    const std::size_t want = oracle.route(origin, cls, Seconds{t});
    EXPECT_EQ(a.target, want) << "decision " << k;
    // load() prunes, so the windows pin which sites it visited.
    for (std::size_t j = 0; j < sites.size(); ++j)
      EXPECT_EQ(router.window_load(j), oracle.window_load(j))
          << "decision " << k << ", site " << j;
    if (::testing::Test::HasFailure()) break;
    if (a.target != origin) ++moved;
  }
  return moved;
}

TEST(GlobalRouter, HybridMatchesThreePassOracle) {
  // Four sites, asymmetric WAN: origin 0 reaches 1 and 2 at equal
  // transit, 3 further away; prices are diurnal and phase-shifted.
  std::vector<Site> sites;
  for (int s = 0; s < 4; ++s) {
    Site site;
    site.name = "site" + std::to_string(s);
    site.cluster = model::make_a9_k10_cluster(s == 0 ? 4 : 2, 1 + s % 2);
    site.arrivals = traffic::make_poisson(10.0);
    site.price = make_diurnal_curve(0.10, 0.8, Seconds{50.0},
                                    Seconds{12.5 * s}, 300 + s, 0.05);
    sites.push_back(std::move(site));
  }
  hw::InterSiteNetwork network(4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = i + 1; j < 4; ++j)
      network.set_link(i, j, hw::LinkSpec{Seconds{0.01 * (i + j)},
                                          BytesPerSecond{1.0e6}});
  network.set_link(0, 2, hw::LinkSpec{Seconds{0.01}, BytesPerSecond{1.0e6}});
  const std::vector<traffic::TrafficClass> classes = {
      {wl("memcached"), 0.7, traffic::SloTarget{Seconds{0.08}, 0.99}},
      {wl("x264"), 0.2, traffic::SloTarget{Seconds{2.0}, 0.95}},
      {wl("EP"), 0.1, traffic::SloTarget{}}};
  const double gap = 1.0 / (0.5 * 4.0 * traffic::cluster_capacity_per_s(
                                           sites[1].cluster, classes));

  RouterOptions options;
  options.policy = RoutePolicy::kSloHybrid;
  options.headroom = 0.6;
  options.transit_slack = 0.25;
  options.load_window = Seconds{40.0 * gap};
  options.request_payload = Bytes{2000.0};

  // Mixed classes: some remote sites pass the gate for some classes.
  EXPECT_GT(expect_router_matches_oracle(sites, network, classes, options,
                                         gap, 1),
            0u);
  // A slack so tight that no remote site qualifies for a class with an
  // SLO: always local.
  RouterOptions tight = options;
  tight.transit_slack = 1e-9;
  const std::vector<traffic::TrafficClass> slo_classes = {classes[0],
                                                          classes[1]};
  EXPECT_EQ(expect_router_matches_oracle(sites, network, slo_classes, tight,
                                         gap, 2),
            0u);
  // Every site saturated: the least-loaded fallback decides.
  RouterOptions saturated = options;
  saturated.headroom = 1e-6;
  EXPECT_GT(expect_router_matches_oracle(sites, network, classes,
                                         saturated, 0.2 * gap, 3),
            0u);
  // Equal flat prices: ties go to transit, then to the lower index.
  std::vector<Site> flat = sites;
  for (Site& site : flat) site.price = PiecewiseCurve::flat(0.12);
  RouterOptions loose = options;
  loose.transit_slack = 100.0;
  expect_router_matches_oracle(flat, network, classes, loose, gap, 4);
  hw::InterSiteNetwork even = hw::InterSiteNetwork::uniform(
      4, Seconds{0.005}, BytesPerSecond{0.0});
  EXPECT_GT(expect_router_matches_oracle(flat, even, classes, loose,
                                         0.3 * gap, 5),
            0u);
}

// -------------------------------------------------------------- fleet

/// The keystone scenario: three time zones, one fleet.
///
/// Site "alpha" is a brawny region (4 K10 nodes); "beta" and "gamma"
/// are half its size. Each region's demand is diurnal with peaks a
/// third of a (compressed) day apart, and each region's tariff and
/// carbon curves peak with its local load — busy hours are expensive
/// hours. Interactive traffic (memcached, tight SLO) cannot afford the
/// WAN; batch (x264, loose SLO, energy-dominant) can.
struct FleetScenario {
  std::vector<Site> sites;
  hw::InterSiteNetwork network;
  std::vector<traffic::TrafficClass> classes;
  FleetOptions options;
  Seconds period{};

  explicit FleetScenario(std::uint64_t requests_per_site = 1500) {
    const std::vector<unsigned> k10 = {4, 2, 2};
    const char* names[] = {"alpha", "beta", "gamma"};

    // Services and SLOs derived from the catalog so the scenario stays
    // valid if the workload constants move.
    const auto probe = model::make_a9_k10_cluster(0, 1);
    const std::vector<traffic::TrafficClass> mc_only = {
        {wl("memcached"), 1.0, {}}};
    const std::vector<traffic::TrafficClass> x264_only = {
        {wl("x264"), 1.0, {}}};
    const Seconds s_i{1.0 / traffic::cluster_capacity_per_s(probe, mc_only)};
    const Seconds s_b{1.0 /
                      traffic::cluster_capacity_per_s(probe, x264_only)};

    const Seconds slo_i{12.0 * s_i.value()};
    const Seconds slo_b{40.0 * s_b.value()};
    classes = {{wl("memcached"), 0.80, traffic::SloTarget{slo_i, 0.95}},
               {wl("x264"), 0.20, traffic::SloTarget{slo_b, 0.95}}};

    // WAN: half the interactive SLO — the hybrid's transit gate
    // (slack 0.25) excludes remote sites for interactive traffic.
    network = hw::InterSiteNetwork::uniform(3, Seconds{0.5 * slo_i.value()},
                                            BytesPerSecond{0.0});

    // Demand: equal volume per region at ~55% of FLEET capacity, so
    // round-robin (capacity-blind) overdrives the half-size regions.
    double fleet_capacity = 0.0;
    for (const unsigned n : k10)
      fleet_capacity += traffic::cluster_capacity_per_s(
          model::make_a9_k10_cluster(0, n), classes);
    const double site_rate = 0.55 * fleet_capacity / 3.0;
    period = Seconds{static_cast<double>(requests_per_site) / site_rate};

    for (std::size_t s = 0; s < 3; ++s) {
      Site site;
      site.name = names[s];
      site.cluster = model::make_a9_k10_cluster(0, k10[s]);
      site.rack_budget = site.cluster.nameplate_power();
      const Seconds offset{period.value() * static_cast<double>(s) / 3.0};
      site.arrivals =
          traffic::make_diurnal(site_rate, 0.85, period, offset);
      // The sinusoidal load peaks a quarter period after its offset;
      // align the tariff peak with the load peak.
      const Seconds price_peak{offset.value() + 0.25 * period.value()};
      site.price = make_diurnal_curve(0.10, 0.8, period, price_peak,
                                      /*seed=*/100 + s, /*jitter=*/0.03);
      site.carbon = make_diurnal_curve(420.0, 0.6, period, price_peak,
                                       /*seed=*/200 + s, /*jitter=*/0.03);
      sites.push_back(std::move(site));
    }

    options.requests_per_site = requests_per_site;
    options.seed = 20260809;
    options.stream.window = Seconds{period.value() / 48.0};
    options.router.policy = RoutePolicy::kSloHybrid;
    options.router.headroom = 0.60;
    options.router.transit_slack = 0.25;
    // Short relative to the diurnal ramp: the router only sees arrivals
    // (placement is a pre-pass, no completion feedback), so a long
    // window lags the ramp and lets backlog build before the headroom
    // gate reacts.
    options.router.load_window = Seconds{6.0 * s_b.value()};
  }

  [[nodiscard]] FleetReport run(RoutePolicy policy,
                                std::size_t pinned = 0) const {
    FleetOptions o = options;
    o.router.policy = policy;
    o.router.pinned_site = pinned;
    return simulate_fleet(sites, network, classes, o);
  }
};

TEST(Fleet, KeystoneHybridBeatsPinnedAndRoundRobin) {
  const FleetScenario scenario;
  const FleetReport hybrid = scenario.run(RoutePolicy::kSloHybrid);

  ASSERT_EQ(hybrid.sites.size(), 3u);
  ASSERT_EQ(hybrid.classes.size(), 2u);
  EXPECT_EQ(hybrid.offered, 3u * scenario.options.requests_per_site);
  EXPECT_EQ(hybrid.completed + hybrid.failed, hybrid.offered);

  std::vector<std::pair<std::string, FleetReport>> baselines;
  baselines.emplace_back("round-robin",
                         scenario.run(RoutePolicy::kRoundRobin));
  for (std::size_t s = 0; s < 3; ++s)
    baselines.emplace_back("pinned:" + scenario.sites[s].name,
                           scenario.run(RoutePolicy::kPinned, s));

  for (const auto& [name, baseline] : baselines) {
    EXPECT_LT(hybrid.energy_cost, baseline.energy_cost)
        << "hybrid should be cheaper than " << name;
    for (std::size_t c = 0; c < hybrid.classes.size(); ++c) {
      EXPECT_LT(hybrid.classes[c].e2e.p99.value(),
                baseline.classes[c].e2e.p99.value())
          << "class " << hybrid.classes[c].name << " p99 vs " << name;
      EXPECT_LE(hybrid.classes[c].violation_fraction(),
                baseline.classes[c].violation_fraction())
          << "class " << hybrid.classes[c].name << " violations vs "
          << name;
    }
  }

  // The win comes from actually using the federation: the hybrid must
  // move batch work across sites, and interactive must stay local
  // (zero transit) under the SLO gate.
  EXPECT_GT(hybrid.cross_site, 0u);
  EXPECT_DOUBLE_EQ(hybrid.classes[0].mean_transit.value(), 0.0);
  EXPECT_GT(hybrid.classes[1].mean_transit.value(), 0.0);
}

TEST(Fleet, ReportIsByteDeterministicAcrossRunsAndShards) {
  const FleetScenario scenario(600);
  const FleetReport a = scenario.run(RoutePolicy::kSloHybrid);
  const FleetReport b = scenario.run(RoutePolicy::kSloHybrid);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());

  FleetOptions sharded = scenario.options;
  sharded.shards = 4;
  const FleetReport c = simulate_fleet(scenario.sites, scenario.network,
                                       scenario.classes, sharded);
  EXPECT_EQ(a.to_json().dump(), c.to_json().dump());
  // Per-site traffic results are unchanged 1 vs N shards.
  for (std::size_t s = 0; s < a.sites.size(); ++s)
    EXPECT_EQ(a.sites[s].result.to_json().dump(),
              c.sites[s].result.to_json().dump());
}

TEST(Fleet, LedgersConserveAndCostWindowsSumToTotals) {
  const FleetScenario scenario(600);
  const FleetReport r = scenario.run(RoutePolicy::kSloHybrid);

  // Request conservation: routes row sums = per-origin demand; routed
  // column sums = per-site offered; class ledgers cover everything.
  std::uint64_t routed_total = 0;
  for (std::size_t o = 0; o < 3; ++o) {
    std::uint64_t row = 0;
    for (std::size_t t = 0; t < 3; ++t) row += r.routes[o][t];
    EXPECT_EQ(row, scenario.options.requests_per_site);
  }
  for (std::size_t t = 0; t < 3; ++t) {
    std::uint64_t col = 0;
    for (std::size_t o = 0; o < 3; ++o) col += r.routes[o][t];
    EXPECT_EQ(col, r.sites[t].routed);
    routed_total += col;
  }
  EXPECT_EQ(routed_total, r.offered);
  std::uint64_t class_total = 0;
  for (const auto& c : r.classes) class_total += c.completed + c.failed;
  EXPECT_EQ(class_total, r.completed + r.failed);

  // Fleet totals = site sums; window sums + idle tails = totals.
  double site_cost = 0.0, site_carbon = 0.0, site_energy = 0.0;
  for (const auto& s : r.sites) {
    site_cost += s.energy_cost;
    site_carbon += s.carbon_g;
    site_energy += s.energy.value();
  }
  EXPECT_NEAR(r.energy_cost, site_cost, 1e-9 * site_cost);
  EXPECT_NEAR(r.carbon_g, site_carbon, 1e-9 * site_carbon);
  EXPECT_NEAR(r.energy.value(), site_energy, 1e-9 * site_energy);
  ASSERT_FALSE(r.cost_windows.empty());
  double window_energy = 0.0;
  for (const auto& w : r.cost_windows) window_energy += w.energy.value();
  double tail_energy = 0.0;
  for (std::size_t s = 0; s < 3; ++s) {
    const Seconds tail{r.horizon.value() -
                       r.sites[s].result.makespan.value()};
    tail_energy += (scenario.sites[s].idle_floor() * tail).value();
  }
  EXPECT_NEAR(window_energy + tail_energy, r.energy.value(),
              1e-6 * r.energy.value());
}

TEST(Fleet, SingleSiteFleetIsLocalOnly) {
  FleetScenario scenario(400);
  std::vector<Site> one = {scenario.sites[0]};
  hw::InterSiteNetwork net(1);
  FleetOptions o = scenario.options;
  o.router.policy = RoutePolicy::kNearest;
  const FleetReport r =
      simulate_fleet(one, net, scenario.classes, o);
  EXPECT_EQ(r.cross_site, 0u);
  EXPECT_EQ(r.offered, 400u);
  EXPECT_EQ(r.sites[0].routed, 400u);
  EXPECT_EQ(r.completed + r.failed, 400u);
  for (const auto& c : r.classes)
    EXPECT_DOUBLE_EQ(c.mean_transit.value(), 0.0);
}

TEST(Fleet, ValidatesScenario) {
  FleetScenario scenario(100);
  FleetOptions o = scenario.options;
  EXPECT_THROW((void)simulate_fleet({}, scenario.network, scenario.classes,
                                    o),
               PreconditionError);
  hw::InterSiteNetwork wrong(2);
  EXPECT_THROW((void)simulate_fleet(scenario.sites, wrong, scenario.classes,
                                    o),
               PreconditionError);
  std::vector<Site> missing = scenario.sites;
  missing[1].arrivals = nullptr;
  EXPECT_THROW(
      (void)simulate_fleet(missing, scenario.network, scenario.classes, o),
      PreconditionError);
  o.requests_per_site = 0;
  EXPECT_THROW((void)simulate_fleet(scenario.sites, scenario.network,
                                    scenario.classes, o),
               PreconditionError);
}

/// Three origins replaying recorded traces. Origins 0 and 1 share half
/// their instants (ties across origins); origin 2 is its own stream.
std::vector<std::vector<Seconds>> tied_traces(std::size_t per_site,
                                              double mean_gap) {
  std::vector<std::vector<Seconds>> traces(3);
  Rng rng(77);
  for (std::size_t o = 0; o < 3; ++o) {
    double t = 0.0;
    for (std::size_t k = 0; k < per_site; ++k) {
      t += rng.exponential(1.0 / mean_gap);
      traces[o].push_back(
          o == 1 && k % 2 == 0 ? traces[0][k] : Seconds{t});
    }
    std::sort(traces[o].begin(), traces[o].end());
  }
  return traces;
}

std::vector<Site> replay_sites(
    const std::vector<std::vector<Seconds>>& traces) {
  std::vector<Site> sites;
  for (std::size_t o = 0; o < traces.size(); ++o) {
    Site site;
    site.name = "r" + std::to_string(o);
    site.cluster = model::make_a9_k10_cluster(2, 1 + o % 2);
    site.arrivals = traffic::make_replay(traces[o]);
    const Seconds span = traces[o].back();
    site.price = make_diurnal_curve(0.10, 0.8, span,
                                    Seconds{0.3 * span.value() * o}, 500 + o,
                                    0.05);
    sites.push_back(std::move(site));
  }
  return sites;
}

TEST(Fleet, MergedStreamPutsTheLowerOriginFirstOnTies) {
  // Round-robin numbers the merged stream: fleet index k goes to site
  // k % 3, so the routes matrix fixes the merge order. The expected
  // order is the stable sort of the origin-ordered concatenation.
  const auto traces = tied_traces(500, 0.01);
  const std::vector<Site> sites = replay_sites(traces);
  const std::vector<traffic::TrafficClass> classes = {
      {wl("memcached"), 1.0, traffic::SloTarget{}}};
  std::vector<std::pair<Seconds, std::size_t>> merged;
  for (std::size_t o = 0; o < traces.size(); ++o)
    for (const Seconds t : traces[o]) merged.emplace_back(t, o);
  std::stable_sort(merged.begin(), merged.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::vector<std::uint64_t>> routes(
      3, std::vector<std::uint64_t>(3, 0));
  for (std::size_t k = 0; k < merged.size(); ++k)
    ++routes[merged[k].second][k % 3];

  for (const std::size_t shards : {1u, 3u}) {
    FleetOptions o;
    o.requests_per_site = 500;
    o.shards = shards;
    o.router.policy = RoutePolicy::kRoundRobin;
    const FleetReport r = simulate_fleet(
        sites, hw::InterSiteNetwork::uniform(3, Seconds{0.002},
                                             BytesPerSecond{0.0}),
        classes, o);
    EXPECT_EQ(r.offered, 1500u);
    EXPECT_EQ(r.routes, routes) << "shards " << shards;
  }
}

TEST(Fleet, EndToEndSummariesMatchAHandJoinOfTheRequestRecords) {
  // Replay traces with cross-origin ties, two classes, an asymmetric
  // WAN (landings reorder at every target; origins 0 and 1 are equally
  // far from site 2, so their shared instants tie there, most of all
  // when everything is pinned to site 2) and queue shedding with
  // retries (failed records). The join is redone here from scratch:
  // merge the origin streams, route them through a fresh GlobalRouter,
  // rebuild each target's landing order, then pair every site's
  // request records with their assignments.
  const std::size_t per_site = 1200;
  const auto traces = tied_traces(per_site, 0.004);
  const std::vector<Site> sites = replay_sites(traces);
  const std::vector<traffic::TrafficClass> classes = {
      {wl("memcached"), 0.8, traffic::SloTarget{Seconds{0.05}, 0.95}},
      {wl("x264"), 0.2, traffic::SloTarget{Seconds{5.0}, 0.95}}};
  hw::InterSiteNetwork network(3);
  network.set_link(0, 1, hw::LinkSpec{Seconds{0.011}, BytesPerSecond{0.0}});
  network.set_link(0, 2, hw::LinkSpec{Seconds{0.017}, BytesPerSecond{0.0}});
  network.set_link(1, 2, hw::LinkSpec{Seconds{0.017}, BytesPerSecond{0.0}});
  FleetOptions options;
  options.requests_per_site = per_site;
  options.seed = 5;
  options.router.policy = RoutePolicy::kSloHybrid;
  options.router.headroom = 0.5;
  options.router.load_window = Seconds{0.2};
  options.admission.max_queue_depth = 6;
  options.retry.max_attempts = 2;

  // Generation as simulate_fleet draws it: replay instants, class coin
  // from the origin's split of the fleet seed.
  struct Pending {
    Seconds t{};
    std::size_t origin = 0;
    std::uint32_t cls = 0;
  };
  std::vector<Pending> merged;
  for (std::size_t o = 0; o < traces.size(); ++o) {
    Rng rng = Rng(options.seed).split(static_cast<unsigned>(o));
    for (const Seconds t : traces[o]) {
      const double coin = rng.uniform01() * (0.8 + 0.2);
      merged.push_back({t, o, coin - 0.8 < 0.0 ? 0u : 1u});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.t < b.t;
                   });
  for (const RoutePolicy policy :
       {RoutePolicy::kSloHybrid, RoutePolicy::kPinned}) {
    options.router.policy = policy;
    options.router.pinned_site = 2;
    GlobalRouter router(sites, network, classes, options.router);
    std::vector<std::vector<Assignment>> landing(3);
    for (const Pending& p : merged) {
      const Assignment a = router.route(p.origin, p.cls, p.t);
      landing[a.target].push_back(a);
    }
    for (auto& stream : landing)
      std::stable_sort(stream.begin(), stream.end(),
                       [](const Assignment& a, const Assignment& b) {
                         return a.t + a.transit < b.t + b.transit;
                       });

    for (const std::size_t shards : {1u, 3u}) {
      SCOPED_TRACE(std::string(route_policy_name(policy)) + ", shards " +
                   std::to_string(shards));
      options.shards = shards;
      const FleetReport r = simulate_fleet(sites, network, classes, options);
      std::vector<std::vector<double>> samples(classes.size());
      std::vector<std::uint64_t> failed(classes.size(), 0);
      std::vector<std::uint64_t> violations(classes.size(), 0);
      std::vector<Seconds> transit_sum(classes.size());
      for (std::size_t s = 0; s < 3; ++s) {
        ASSERT_EQ(r.sites[s].result.offered, landing[s].size());
        for (const traffic::RequestRecord& rec : r.sites[s].result.requests) {
          const Assignment& a = landing[s][rec.index];
          ASSERT_EQ(a.cls, rec.cls);
          if (rec.failed != 0) {
            ++failed[rec.cls];
            continue;
          }
          const Seconds e2e = a.transit + rec.sojourn;
          samples[rec.cls].push_back(e2e.value());
          transit_sum[rec.cls] += a.transit;
          if (e2e > classes[rec.cls].slo.latency) ++violations[rec.cls];
        }
      }
      EXPECT_GT(failed[0] + failed[1], 0u);
      EXPECT_GT(r.cross_site, 0u);
      for (std::size_t c = 0; c < classes.size(); ++c) {
        EXPECT_EQ(r.classes[c].completed, samples[c].size()) << "class " << c;
        EXPECT_EQ(r.classes[c].failed, failed[c]) << "class " << c;
        EXPECT_EQ(r.classes[c].slo_violations, violations[c]) << "class " << c;
        EXPECT_EQ(r.classes[c].mean_transit.value(),
                  transit_sum[c].value() /
                      static_cast<double>(samples[c].size()))
            << "class " << c;
        const traffic::LatencySummary want =
            traffic::LatencySummary::from_samples(samples[c]);
        const traffic::LatencySummary& got = r.classes[c].e2e;
        EXPECT_EQ(got.count, want.count) << "class " << c;
        EXPECT_EQ(got.mean.value(), want.mean.value()) << "class " << c;
        EXPECT_EQ(got.p50.value(), want.p50.value()) << "class " << c;
        EXPECT_EQ(got.p95.value(), want.p95.value()) << "class " << c;
        EXPECT_EQ(got.p99.value(), want.p99.value()) << "class " << c;
        EXPECT_EQ(got.max.value(), want.max.value()) << "class " << c;
      }
    }
  }
}

}  // namespace
