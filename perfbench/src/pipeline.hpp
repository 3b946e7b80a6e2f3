// One benchmark workload: the inputs it builds, the public-API call it
// times, the checks on that call's outputs, and the decomposition of the
// call into calls on each layer's public functions for the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hcep/obs/metrics.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/workload/demand.hpp"
#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Host-normalized span totals (ms by span name) of one decomposition.
using Round = std::map<std::string, double>;

/// Self time of each layer per call, host-normalized ms.
using Attribution = std::vector<std::pair<std::string, double>>;

class Pipeline {
 public:
  virtual ~Pipeline() = default;

  /// Builds the call's inputs from the catalog and the seed. Timed as
  /// part of set-up.
  virtual void build(const std::vector<hcep::workload::Workload>& catalog,
                     std::uint64_t seed) = 0;
  /// Output checks made once at set-up (untimed).
  virtual void check_setup(std::vector<std::string>& failures) = 0;
  /// One timed call through hcep's public API; returns the work items
  /// it completed.
  virtual std::uint64_t call() = 0;
  /// Checks the outputs of the last call.
  virtual void check_call(std::vector<std::string>& failures) = 0;
  /// Exact simulated counts of the last call. `snap` holds the counters
  /// of the observer installed around it.
  virtual void counts(const hcep::obs::MetricsSnapshot& snap,
                      Metrics& out) const = 0;
  /// Calls each layer's public functions on this call's inputs, one span
  /// per layer, under the span the caller holds open.
  virtual void decompose(SpanRecorder& rec, std::uint64_t call) = 0;
  /// Layer metrics from the decomposition rounds. `call_ms` is the
  /// median host-normalized untraced call time; the attribution gets
  /// each layer's self time per call.
  virtual void layers(const std::vector<Round>& rounds, double call_ms,
                      Metrics& out, Attribution& attribution) const = 0;
};

std::unique_ptr<Pipeline> make_sweep();
std::unique_ptr<Pipeline> make_traffic();
std::unique_ptr<Pipeline> make_fleet();

/// Catalog lookup by paper program name; throws when missing.
const hcep::workload::Workload& find_workload(
    const std::vector<hcep::workload::Workload>& catalog,
    const std::string& name);

/// Median over rounds of the named span total (0 when never recorded).
double median_of(const std::vector<Round>& rounds, const std::string& name);

/// The two request classes both request-level workloads serve:
/// interactive memcached (80%, SLO 12x its service time on one K10) and
/// batch x264 (20%, SLO 40x), as in the federation scenario.
std::vector<hcep::traffic::TrafficClass> request_classes(
    const std::vector<hcep::workload::Workload>& catalog);

/// Sum of jobs served over a run's nodes (the dispatch layer's count).
std::uint64_t dispatched_jobs(const hcep::traffic::TrafficResult& r);

}  // namespace perfbench
