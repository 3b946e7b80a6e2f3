// Observability walkthrough: trace a simulated cluster run and export
// it for chrome://tracing.
//
//   $ ./obs_trace [out_dir]
//
// Installs an obs::Observer around a cluster simulation, then writes
//   <out_dir>/cluster_trace.json   Chrome trace_event JSON — open it in
//                                  chrome://tracing or ui.perfetto.dev to
//                                  see job spans, arrival instants and the
//                                  cluster_W power counter track
//   <out_dir>/cluster_trace.jsonl  the same events, one object per line
//   <out_dir>/cluster_power.csv    the exact power trace (t_s,power_w)
//   <out_dir>/metrics.json         merged counter/histogram snapshot
// and prints the headline counters.
#include <fstream>
#include <iostream>
#include <string>

#include "hcep/cluster/simulator.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/power_probe.hpp"
#include "hcep/workload/catalog.hpp"

int main(int argc, char** argv) {
  using namespace hcep;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  const workload::Workload w = workload::make_workload("EP");
  const model::TimeEnergyModel m(model::make_a9_k10_cluster(4, 2), w);

  // Everything constructed inside the scope reports to this observer:
  // the DES kernel counts its events, the cluster simulator emits job
  // spans and mirrors its power trace onto the "cluster_W" track.
  obs::Observer observer;
  cluster::SimResult result;
  {
    obs::ScopedObserver scope(observer);
    cluster::SimOptions opts;
    opts.utilization = 0.6;
    opts.min_jobs = 200;
    result = cluster::simulate(m, opts);
  }

  const auto write = [&](const std::string& name, const std::string& body) {
    const std::string path = out_dir + "/" + name;
    std::ofstream f(path);
    f << body;
    std::cout << "wrote " << path << "\n";
  };
  write("cluster_trace.json", observer.tracer.chrome_trace_json());
  write("cluster_trace.jsonl", observer.tracer.jsonl());
  // Bound to a local: iterating steps() of a temporary would dangle.
  const auto power = obs::counter_track(observer.tracer, "cluster_W");
  std::string csv = "t_s,power_w\n";
  for (const auto& s : power.steps()) {
    csv += std::to_string(s.start.value()) + "," +
           std::to_string(s.level.value()) + "\n";
  }
  write("cluster_power.csv", csv);
  write("metrics.json", observer.metrics.snapshot().to_json().dump_pretty());

  const obs::MetricsSnapshot snap = observer.metrics.snapshot();
  std::cout << "jobs completed:  " << result.jobs_completed << "\n"
            << "des events:      " << snap.counter("des.events") << "\n"
            << "  arrivals:      " << snap.counter("sim.arrival_events")
            << "\n"
            << "  completions:   " << snap.counter("sim.completion_events")
            << "\n"
            << "  power steps:   " << snap.counter("sim.power_events")
            << "\n"
            << "trace events:    " << observer.tracer.recorded() << " ("
            << observer.tracer.dropped() << " dropped)\n"
            << "exact energy:    " << result.energy_exact << "\n"
            << "measured energy: " << result.energy_measured << "\n";
  return 0;
}
