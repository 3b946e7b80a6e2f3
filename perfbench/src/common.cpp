#include <stdexcept>

#include "hcep/model/cluster_spec.hpp"
#include "host.hpp"
#include "pipeline.hpp"

namespace perfbench {

using namespace hcep;

const workload::Workload& find_workload(
    const std::vector<workload::Workload>& catalog, const std::string& name) {
  for (const auto& w : catalog)
    if (w.name == name) return w;
  throw std::runtime_error("catalog has no workload " + name);
}

double median_of(const std::vector<Round>& rounds, const std::string& name) {
  std::vector<double> values;
  for (const Round& r : rounds) {
    const auto it = r.find(name);
    if (it != r.end()) values.push_back(it->second);
  }
  return quantile(values, 0.5);
}

std::vector<traffic::TrafficClass> request_classes(
    const std::vector<workload::Workload>& catalog) {
  const auto probe = model::make_a9_k10_cluster(0, 1);
  const workload::Workload& mc = find_workload(catalog, "memcached");
  const workload::Workload& x264 = find_workload(catalog, "x264");
  const double s_i =
      1.0 / traffic::cluster_capacity_per_s(probe, {{mc, 1.0, {}}});
  const double s_b =
      1.0 / traffic::cluster_capacity_per_s(probe, {{x264, 1.0, {}}});
  return {{mc, 0.80, traffic::SloTarget{Seconds{12.0 * s_i}, 0.95}},
          {x264, 0.20, traffic::SloTarget{Seconds{40.0 * s_b}, 0.95}}};
}

std::uint64_t dispatched_jobs(const traffic::TrafficResult& r) {
  std::uint64_t jobs = 0;
  for (const auto& n : r.nodes) jobs += n.jobs_served;
  return jobs;
}

}  // namespace perfbench
