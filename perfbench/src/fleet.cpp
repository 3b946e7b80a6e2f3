// `fleet`: fed::simulate_fleet on three sites with phase-shifted diurnal
// demand and time-of-use price curves, the slo-hybrid router, a
// power-gate controller per site, a stream window and shards = 3; the
// report is serialized with to_json().dump(). It reaches the traffic
// engine through its other entry point (assigned arrivals plus request
// records) and loads control, obs::stream, fed routing and the thread
// pool, which `traffic` and `sweep` bypass.
#include <algorithm>

#include "hcep/control/controllers.hpp"
#include "hcep/fed/curves.hpp"
#include "hcep/fed/fleet.hpp"
#include "hcep/fed/router.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/obs/stream.hpp"
#include "hcep/util/rng.hpp"
#include "pipeline.hpp"

namespace perfbench {
namespace {

using namespace hcep;

constexpr std::uint64_t kRequestsPerSite = 40000;
constexpr std::size_t kShards = 3;

class Fleet final : public Pipeline {
 public:
  void build(const std::vector<workload::Workload>& catalog,
             std::uint64_t seed) override {
    classes_ = request_classes(catalog);
    const auto probe = model::make_a9_k10_cluster(0, 1);
    const double s_i = classes_[0].slo.latency.value() / 12.0;
    const double s_b =
        1.0 / traffic::cluster_capacity_per_s(probe, {{classes_[1].workload,
                                                      1.0, {}}});
    network_ = hw::InterSiteNetwork::uniform(3, Seconds{6.0 * s_i},
                                             BytesPerSecond{0.0});
    // "alpha" is twice the size of "beta" and "gamma"; demand peaks a
    // third of a compressed day apart, tariffs peak with local load.
    const unsigned a9[] = {8, 4, 4};
    const unsigned k10[] = {4, 2, 2};
    const char* names[] = {"alpha", "beta", "gamma"};
    double fleet_capacity = 0.0;
    for (std::size_t s = 0; s < 3; ++s)
      fleet_capacity += traffic::cluster_capacity_per_s(
          model::make_a9_k10_cluster(a9[s], k10[s]), classes_);
    const double site_rate = 0.55 * fleet_capacity / 3.0;
    const Seconds period{static_cast<double>(kRequestsPerSite) / site_rate};
    auto gate = std::shared_ptr<const control::Controller>(
        control::make_power_gate());
    sites_.clear();
    for (std::size_t s = 0; s < 3; ++s) {
      fed::Site site;
      site.name = names[s];
      site.cluster = model::make_a9_k10_cluster(a9[s], k10[s]);
      site.rack_budget = site.cluster.nameplate_power();
      const Seconds offset{period.value() * static_cast<double>(s) / 3.0};
      site.arrivals = traffic::make_diurnal(site_rate, 0.85, period, offset);
      const Seconds peak{offset.value() + 0.25 * period.value()};
      site.price = fed::make_diurnal_curve(0.10, 0.8, period, peak,
                                           seed + 100 + s, 0.03);
      site.carbon = fed::make_diurnal_curve(420.0, 0.6, period, peak,
                                            seed + 200 + s, 0.03);
      site.control.controller = gate;
      site.control.period = Seconds{period.value() / 96.0};
      site.control.wake_delay = Seconds{20.0 * s_b};
      sites_.push_back(std::move(site));
    }
    options_ = {};
    options_.requests_per_site = kRequestsPerSite;
    options_.seed = seed;
    options_.shards = kShards;
    options_.stream.window = Seconds{period.value() / 48.0};
    options_.router.policy = fed::RoutePolicy::kSloHybrid;
    options_.router.headroom = 0.60;
    options_.router.transit_slack = 0.25;
    options_.router.load_window = Seconds{6.0 * s_b};
  }

  void check_setup(std::vector<std::string>&) override {
    // The serial reference every sharded call must reproduce byte for
    // byte (shards only decide whether sites replay concurrently).
    fed::FleetOptions serial = options_;
    serial.shards = 1;
    serial_json_ = fed::simulate_fleet(sites_, network_, classes_, serial)
                       .to_json()
                       .dump();
  }

  std::uint64_t call() override {
    last_ = fed::simulate_fleet(sites_, network_, classes_, options_);
    last_json_ = last_.to_json().dump();
    return last_.offered;
  }

  void check_call(std::vector<std::string>& failures) override {
    if (last_.offered != last_.completed + last_.failed ||
        last_.offered != 3 * kRequestsPerSite)
      failures.push_back("fleet: offered != completed + failed");
    if (last_json_ != serial_json_)
      failures.push_back(
          "fleet: FleetReport JSON differs from the shards = 1 run");
  }

  void counts(const obs::MetricsSnapshot&, Metrics& out) const override {
    std::uint64_t offered = 0, admitted = 0, shed = 0, retries = 0,
                  completed = 0, failed = 0, jobs = 0, ticks = 0, sleeps = 0,
                  wakes = 0, points = 0, windows = 0;
    for (const fed::SiteReport& s : last_.sites) {
      const traffic::TrafficResult& r = s.result;
      offered += r.offered;
      admitted += r.admitted;
      shed += r.shed_bucket + r.shed_queue;
      retries += r.retries;
      completed += r.completed;
      failed += r.failed;
      jobs += dispatched_jobs(r);
      ticks += r.control.ticks;
      sleeps += r.control.sleeps;
      wakes += r.control.wakes;
      points += r.control.point_changes;
      windows += r.timeline.windows.size();
    }
    const auto add = [&out](const char* name, std::uint64_t v) {
      out.push_back({name, static_cast<double>(v), "count"});
    };
    add("des.events", last_.metrics.counter("des.events"));
    add("traffic.offered", offered);
    add("traffic.admitted", admitted);
    add("traffic.shed", shed);
    add("traffic.retries", retries);
    add("traffic.completed", completed);
    add("traffic.failed", failed);
    add("dispatch.jobs", jobs);
    add("control.ticks", ticks);
    add("control.sleeps", sleeps);
    add("control.wakes", wakes);
    add("control.point_changes", points);
    add("fed.cross_site", last_.cross_site);
    add("obs.stream.windows", windows);
  }

  void decompose(SpanRecorder& rec, std::uint64_t call) override {
    struct Pending {
      Seconds t{};
      std::uint32_t origin = 0;
      std::uint32_t cls = 0;
    };
    std::vector<Pending> merged;
    {
      ScopedSpan span(rec, "fed.generate", call);
      merged.reserve(3 * kRequestsPerSite);
      const double total = classes_[0].weight + classes_[1].weight;
      for (std::uint32_t o = 0; o < sites_.size(); ++o) {
        auto gen = sites_[o].arrivals->clone();
        Rng rng = Rng(options_.seed).split(o);
        Seconds t{0.0};
        for (std::uint64_t k = 0; k < kRequestsPerSite; ++k) {
          t = gen->next(t, rng);
          const bool batch = rng.uniform01() * total >= classes_[0].weight;
          merged.push_back({t, o, batch ? 1u : 0u});
        }
      }
      std::stable_sort(merged.begin(), merged.end(),
                       [](const Pending& a, const Pending& b) {
                         return a.t < b.t;
                       });
    }
    std::vector<std::vector<traffic::Arrival>> assigned(sites_.size());
    {
      ScopedSpan span(rec, "fed.route", call);
      fed::GlobalRouter router(sites_, network_, classes_, options_.router);
      for (const Pending& p : merged) {
        const fed::Assignment a = router.route(p.origin, p.cls, p.t);
        assigned[a.target].push_back({a.t + a.transit, a.cls});
      }
      for (auto& stream : assigned)
        std::stable_sort(stream.begin(), stream.end(),
                         [](const traffic::Arrival& a,
                            const traffic::Arrival& b) { return a.t < b.t; });
    }
    std::vector<double> sojourns;
    for (std::size_t s = 0; s < sites_.size(); ++s) {
      traffic::TrafficOptions site;
      site.policy = options_.policy;
      site.seed = options_.seed + s + 1;
      site.control = sites_[s].control;
      site.stream = options_.stream;
      site.record_requests = true;
      ScopedSpan span(rec, "fed.replay.site" + std::to_string(s), call);
      const traffic::TrafficResult r = traffic::simulate_traffic(
          sites_[s].cluster, classes_, assigned[s], site);
      if (s == 0)
        for (const traffic::RequestRecord& q : r.requests)
          sojourns.push_back(q.sojourn.value());
    }
    {
      ScopedSpan span(rec, "fed.json", call);
      sink_ += static_cast<double>(last_.to_json().dump().size());
    }
    {
      // Probe of the stream layer's per-window quantile sketch, fed one
      // site's sojourns.
      obs::stream::QuantileSketch sketch;
      ScopedSpan span(rec, "obs.sketch", call);
      for (const double v : sojourns) sketch.insert(v);
      sink_ += sketch.quantile(0.99);
    }
    sketch_inserts_ = sojourns.size();
  }

  void layers(const std::vector<Round>& rounds, double call_ms, Metrics& out,
              Attribution& attribution) const override {
    const double n = static_cast<double>(3 * kRequestsPerSite);
    const double generate = median_of(rounds, "fed.generate");
    const double route = median_of(rounds, "fed.route");
    const double json = median_of(rounds, "fed.json");
    double replay_sum = 0.0;
    double replay_max = 0.0;
    for (std::size_t s = 0; s < sites_.size(); ++s) {
      const double ms =
          median_of(rounds, "fed.replay.site" + std::to_string(s));
      replay_sum += ms;
      replay_max = std::max(replay_max, ms);
    }
    out.push_back({"fed.generate_ms", generate, "ms"});
    out.push_back({"fed.route_ns_per_req", route * 1e6 / n, "ns"});
    out.push_back({"fed.replay_ms", replay_sum, "ms"});
    out.push_back({"fed.replay_max_ms", replay_max, "ms"});
    out.push_back({"fed.json_ms", json, "ms"});
    out.push_back({"obs.sketch.insert_ns",
                   median_of(rounds, "obs.sketch") * 1e6 /
                       static_cast<double>(std::max<std::size_t>(
                           sketch_inserts_, 1)),
                   "ns"});
    out.push_back({"parallel.site_speedup", replay_sum / call_ms, "x"});
    // Sites replay concurrently, so the call waits for the slowest one;
    // generation, routing and serialization stay serial.
    attribution = {{"fed.generate", generate},
                   {"fed.route", route},
                   {"fed.replay(max site)", replay_max},
                   {"fed.json", json}};
    out.push_back({"fleet.unattributed_share",
                   (call_ms - generate - route - replay_max - json) / call_ms,
                   "share"});
  }

 private:
  std::vector<fed::Site> sites_;
  hw::InterSiteNetwork network_;
  std::vector<traffic::TrafficClass> classes_;
  fed::FleetOptions options_;
  std::string serial_json_;
  fed::FleetReport last_;
  std::string last_json_;
  std::size_t sketch_inserts_ = 0;
  double sink_ = 0.0;
};

}  // namespace

std::unique_ptr<Pipeline> make_fleet() { return std::make_unique<Fleet>(); }

}  // namespace perfbench
