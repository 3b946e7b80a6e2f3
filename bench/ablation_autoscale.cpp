// Ablation — static mixes vs dynamic node autoscaling.
//
// The paper's sub-linear static configurations (Figure 9) trade time for
// energy but keep every node powered. The complementary "dynamic
// adaptation" the paper defers — parking whole nodes against a diurnal
// load — collapses the idle floor and pushes the effective power profile
// toward the ideal line no static mix can reach.
//
// Every row is one request-level run (traffic::simulate_traffic) of a
// compressed 600 s day whose offered load swings between 10 % and 80 %
// of the fleet's capacity. Static mixes run open loop; the autoscaled
// fleet runs under the power-gate controller. The autoscaled fleet's
// effective profile is measured from its streamed timeline: each 25 s
// window contributes one (offered utilization, average power) sample.
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "bench_common.hpp"
#include "hcep/config/budget.hpp"
#include "hcep/control/controllers.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/stats.hpp"

namespace {

using namespace hcep;

constexpr double kLow = 0.1;
constexpr double kHigh = 0.8;
constexpr Seconds kDay{600.0};
constexpr Seconds kWindow{25.0};

struct DayRun {
  traffic::TrafficResult result;
  double capacity_per_s = 0.0;
  Seconds worst_p95{};  ///< worst per-window sojourn p95
};

DayRun run_day(const model::ClusterSpec& cluster,
               const workload::Workload& w,
               std::shared_ptr<const control::Controller> controller) {
  const std::vector<traffic::TrafficClass> classes{{w, 1.0, {}}};
  DayRun day;
  day.capacity_per_s = traffic::cluster_capacity_per_s(cluster, classes);
  const double mean = 0.5 * (kLow + kHigh);
  const double rate = mean * day.capacity_per_s;
  traffic::TrafficOptions opts;
  opts.requests = static_cast<std::uint64_t>(std::llround(rate * kDay.value()));
  opts.seed = 2024;
  opts.stream.window = kWindow;
  opts.control.controller = std::move(controller);
  const auto arrivals =
      traffic::make_diurnal(rate, (kHigh - mean) / mean, kDay);
  day.result = traffic::simulate_traffic(cluster, classes, *arrivals, opts);
  for (const auto& win : day.result.timeline.windows)
    day.worst_p95 = std::max(day.worst_p95, win.sojourn_p95);
  return day;
}

/// Effective power profile of a run: per-window (offered utilization,
/// average power) samples averaged in 2 % bins, anchored at the fleet's
/// full busy power at u = 1. Below the lightest bin it holds that bin's
/// draw, so the profile is measured, not extrapolated to zero load.
power::PowerCurve effective_curve(const DayRun& day, Watts busy_power) {
  const auto& tl = day.result.timeline;
  std::map<double, RunningStats> profile;
  for (const auto& win : tl.windows) {
    const double width =
        std::min(win.t1.value(), tl.horizon.value()) - win.t0.value();
    if (width < 0.5 * tl.window.value()) continue;  // clipped tail window
    const double u = static_cast<double>(win.arrivals) /
                     (day.capacity_per_s * width);
    profile[std::round(u * 50.0) / 50.0].add(
        (win.energy + win.wake).value() / width);
  }
  PiecewiseLinear samples;
  if (profile.begin()->first > 0.0)
    samples.add(0.0, profile.begin()->second.mean());
  for (const auto& [u, stats] : profile)
    if (u < 1.0) samples.add(u, stats.mean());
  samples.add(1.0, busy_power.value());
  return power::PowerCurve::sampled(std::move(samples));
}

}  // namespace

int main() {
  bench::banner("Ablation: static 1 kW mixes vs autoscaling (EP, diurnal day)",
                "Section I's 'dynamic adaptation' complement; Figure 9");

  const auto& ep = bench::study().workload("EP");
  TextTable table({"system", "energy/day [kJ]", "EPM", "idle floor [W]",
                   "worst p95 [ms]"});
  // Static mixes: the same day with every node always on.
  for (const auto& mix : config::paper_budget_mixes()) {
    const model::TimeEnergyModel m(mix, ep);
    const DayRun day = run_day(mix, ep, nullptr);
    table.add_row({"static " + mix.label(),
                   fmt(day.result.energy.value() / 1e3, 1),
                   fmt(metrics::analyze(m.power_curve()).epm, 2),
                   fmt(m.idle_power().value(), 1),
                   fmt(day.worst_p95.value() * 1e3, 1)});
  }
  // Autoscaled: the 32A9:12K10 fleet under the power-gate controller.
  {
    const auto fleet = model::make_a9_k10_cluster(32, 12);
    const model::TimeEnergyModel m(fleet, ep);
    const DayRun day = run_day(fleet, ep, control::make_power_gate());
    const auto curve = effective_curve(day, m.busy_power());
    table.add_row({"autoscaled 32A9:12K10",
                   fmt(day.result.energy.value() / 1e3, 1),
                   fmt(metrics::analyze(curve).epm, 2),
                   fmt(curve.idle().value(), 1),
                   fmt(day.worst_p95.value() * 1e3, 1)});
  }
  std::cout << table
            << "reading: static mixes are pinned at EPM = 1 - IPR (the\n"
               "proportionality wall); parking nodes collapses the idle\n"
               "floor and lifts EPM toward 1 — dynamic adaptation, not mix\n"
               "choice, is what actually scales the wall. The latency cost\n"
               "is the wake delay: when load climbs faster than the\n"
               "headroom covers, requests queue on the awake nodes until\n"
               "parked ones finish booting (10 s here).\n";
  return 0;
}
