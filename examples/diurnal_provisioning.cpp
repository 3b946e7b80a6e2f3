// Diurnal provisioning: which 1 kW mix serves a day of real-looking load
// with the least energy?
//
//   $ ./diurnal_provisioning [program] [low_util] [high_util]
//
// Runs a 24 h day/night sine (compressed to a simulated day) of requests
// through every budget mix and reports energy-per-day, average power and
// the worst window p95 — the numbers a capacity planner actually
// compares.
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "hcep/hcep.hpp"

int main(int argc, char** argv) {
  using namespace hcep;
  using namespace hcep::literals;

  const std::string program = argc > 1 ? argv[1] : "EP";
  const double low = argc > 2 ? std::atof(argv[2]) : 0.15;
  const double high = argc > 3 ? std::atof(argv[3]) : 0.85;
  if (!(low > 0.0 && low <= high && high < 1.0)) {
    std::cerr << "need 0 < low_util <= high_util < 1\n";
    return 1;
  }

  const workload::Workload w = workload::make_workload(program);
  const std::vector<traffic::TrafficClass> classes{{w, 1.0, {}}};
  // A "day" compressed to 10 minutes of simulated time keeps the run
  // fast while spanning thousands of jobs; energies scale linearly.
  const Seconds day = 600_s;
  const double mean = 0.5 * (low + high);

  std::cout << "running a diurnal day (" << low * 100 << "%-" << high * 100
            << "% utilization) of " << program << " over the 1 kW mixes\n\n";

  TextTable table({"mix", "energy/day [kJ]", "avg power [W]",
                   "worst window p95 [ms]", "jobs"});
  std::string best_label;
  double best_energy = 1e300;
  for (const auto& mix : config::paper_budget_mixes()) {
    const double rate = mean * traffic::cluster_capacity_per_s(mix, classes);
    traffic::TrafficOptions opts;
    opts.requests =
        static_cast<std::uint64_t>(std::llround(rate * day.value()));
    opts.seed = 2024;
    opts.stream.window = 25_s;
    const auto arrivals =
        traffic::make_diurnal(rate, (high - mean) / mean, day);
    const auto r = traffic::simulate_traffic(mix, classes, *arrivals, opts);
    Seconds worst_p95{0.0};
    for (const auto& win : r.timeline.windows)
      worst_p95 = std::max(worst_p95, win.sojourn_p95);
    table.add_row({mix.label(), fmt(r.energy.value() / 1e3, 1),
                   fmt(r.average_power.value(), 1),
                   fmt(worst_p95.value() * 1e3, 1),
                   std::to_string(r.completed)});
    if (r.energy.value() < best_energy) {
      best_energy = r.energy.value();
      best_label = mix.label();
    }
  }
  std::cout << table << "\nleast energy per day: " << best_label << " ("
            << fmt(best_energy / 1e3, 1) << " kJ)\n"
            << "note: mixes see the same utilization profile; absolute "
               "work differs with capacity.\nFor iso-work comparisons "
               "scale the utilization by capacity ratios.\n";
  return 0;
}
