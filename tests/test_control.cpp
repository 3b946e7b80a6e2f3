// hcep::control — closed-loop energy control under live traffic.
//
// Two pillars:
//  1. The frozen-controller ORACLE: installing a controller that never
//     actuates must reproduce the open-loop TrafficResult byte-for-byte
//     (same JSON bytes, same energy bits). This pins the entire control
//     machinery — tick scheduling, window accounting, energy arithmetic —
//     as a zero-cost observer, so any behavioral difference in a real
//     controlled run is attributable to its actuations alone.
//  2. The KEYSTONE: under diurnal and MMPP load, the closed-loop
//     power-gating run beats every static Table 8 mix (the paper's 1 kW
//     budget fleet sweep) on energy-per-request while still meeting the
//     same p99-vs-SLO bar — reproducing the paper's energy-
//     proportionality thesis as an online result rather than an offline
//     sweep. Reproducible from the CLI: `hcep control`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "hcep/config/budget.hpp"
#include "hcep/control/controller.hpp"
#include "hcep/model/time_energy.hpp"
#include "hcep/control/controllers.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::traffic;

const workload::Workload& wl(const std::string& name) {
  static const auto kCatalog = workload::paper_workloads();
  for (const auto& w : kCatalog)
    if (w.name == name) return w;
  throw std::runtime_error("missing workload " + name);
}

std::vector<TrafficClass> one_class(const std::string& name = "EP") {
  return {TrafficClass{wl(name), 1.0, SloTarget{}}};
}

// ---------------------------------------------------------------- oracle

/// Open-loop vs frozen-controller runs must be byte-identical: same JSON
/// bytes and bitwise-equal energy. Exercised over every code path the
/// control plane hooks: plain runs, admission + retries, multi-class,
/// and both together.
struct OracleCase {
  const char* label;
  bool admission;
  bool multi_class;
};

class FrozenOracle
    : public ::testing::TestWithParam<std::tuple<OracleCase, DispatchPolicy>> {
};

TEST_P(FrozenOracle, ReproducesOpenLoopByteIdentically) {
  const OracleCase& c = std::get<0>(GetParam());
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  std::vector<TrafficClass> classes =
      c.multi_class ? std::vector<TrafficClass>{
                          TrafficClass{wl("EP"), 3.0, SloTarget{}},
                          TrafficClass{wl("memcached"), 1.0,
                                       SloTarget{Seconds{0.05}, 0.95}}}
                    : one_class();

  TrafficOptions open;
  open.requests = 4000;
  open.seed = 20260809;
  open.policy = std::get<1>(GetParam());
  if (c.admission) {
    open.admission.bucket_rate_per_s = 60.0;
    open.admission.bucket_burst = 20.0;
    open.admission.max_queue_depth = 6;
    open.retry.max_attempts = 3;
    open.retry.base_backoff = Seconds{0.01};
  }

  TrafficOptions frozen = open;
  frozen.control.controller = control::make_frozen();
  frozen.control.period = Seconds{2.0};
  frozen.control.record_power_trace = true;

  const auto arrivals = make_bursty(40.0, Seconds{3.0}, 250.0, Seconds{0.5});
  const auto a = simulate_traffic(cluster, classes, *arrivals, open);
  const auto b = simulate_traffic(cluster, classes, *arrivals, frozen);

  // The core result document is byte-identical...
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump()) << c.label;
  // ...including the bits of every energy figure.
  EXPECT_EQ(a.energy.value(), b.energy.value()) << c.label;
  EXPECT_EQ(a.energy_per_request.value(), b.energy_per_request.value());
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].energy_per_request.value(),
              b.classes[i].energy_per_request.value())
        << c.label << " class " << i;
  }

  // The frozen run still ticked — and ledgered zero actuations.
  EXPECT_FALSE(a.control.enabled);
  EXPECT_TRUE(b.control.enabled);
  EXPECT_EQ(b.control.controller, "frozen");
  EXPECT_GT(b.control.ticks, 0u);
  EXPECT_EQ(b.control.sleeps, 0u);
  EXPECT_EQ(b.control.wakes, 0u);
  EXPECT_EQ(b.control.point_changes, 0u);
  EXPECT_EQ(b.control.gating_savings.value(), 0.0);
  EXPECT_EQ(b.control.wake_energy.value(), 0.0);
  EXPECT_TRUE(b.control.all_dispatches_available);
}

std::string policy_label(DispatchPolicy policy) {
  std::string n = to_string(policy);
  std::replace(n.begin(), n.end(), '-', '_');
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    Paths, FrozenOracle,
    ::testing::Combine(
        ::testing::Values(OracleCase{"plain", false, false},
                          OracleCase{"admission", true, false},
                          OracleCase{"multiclass", false, true},
                          OracleCase{"admission_multiclass", true, true}),
        ::testing::ValuesIn(all_dispatch_policies())),
    [](const auto& inst) {
      return std::string(std::get<0>(inst.param).label) + "_" +
             policy_label(std::get<1>(inst.param));
    });

/// Every policy under the power gate with parked nodes: dispatch must
/// skip sleeping and draining nodes, and no request may be lost.
class PowerGateEveryPolicy : public ::testing::TestWithParam<DispatchPolicy> {
};

TEST_P(PowerGateEveryPolicy, DispatchesOnlyToActiveNodes) {
  const auto cluster = model::make_a9_k10_cluster(8, 2);
  TrafficOptions options;
  options.requests = 6000;
  options.seed = 13;
  options.policy = GetParam();
  options.control.controller = control::make_power_gate({});
  options.control.period = Seconds{2.0};
  options.control.wake_delay = Seconds{1.0};
  const double rate = 0.25 * cluster_capacity_per_s(cluster, one_class());
  const auto r = simulate_traffic(
      cluster, one_class(), *make_diurnal(rate, 0.6, Seconds{300.0 / rate}),
      options);
  EXPECT_GT(r.control.sleeps, 0u);
  EXPECT_TRUE(r.control.all_dispatches_available);
  EXPECT_EQ(r.completed + r.failed, r.offered);
  EXPECT_EQ(r.offered, 6000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PowerGateEveryPolicy,
    ::testing::ValuesIn(all_dispatch_policies()),
    [](const auto& inst) { return policy_label(inst.param); });

// ---------------------------------------------------------- determinism

TEST(Control, SameSeedControlledRunsAreByteIdentical) {
  const auto cluster = model::make_a9_k10_cluster(8, 2);
  TrafficOptions options;
  options.requests = 6000;
  options.seed = 13;
  options.control.controller = control::make_power_gate({});
  options.control.period = Seconds{2.0};
  options.control.wake_delay = Seconds{1.0};
  options.control.record_power_trace = true;
  const auto run = [&]() {
    return simulate_traffic(cluster, one_class(),
                            *make_diurnal(30.0, 0.6, Seconds{30.0}), options);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.control.to_json().dump(), b.control.to_json().dump());
  EXPECT_EQ(a.control.gating_savings.value(),
            b.control.gating_savings.value());
}

// ------------------------------------------------------------ behaviors

TEST(Control, PowerGatingSavesEnergyUnderLowLoad) {
  // A lightly loaded fleet: the autoscaler must park nodes and convert
  // idle floor into gating savings without losing a single request.
  const auto cluster = model::make_a9_k10_cluster(8, 2);
  TrafficOptions open;
  open.requests = 6000;
  open.seed = 5;
  TrafficOptions gated = open;
  gated.control.controller = control::make_power_gate({});
  gated.control.period = Seconds{2.0};
  gated.control.wake_delay = Seconds{1.0};

  const auto arrivals = make_diurnal(25.0, 0.6, Seconds{60.0});
  const auto base = simulate_traffic(cluster, one_class(), *arrivals, open);
  const auto r = simulate_traffic(cluster, one_class(), *arrivals, gated);

  EXPECT_EQ(r.completed, open.requests);
  EXPECT_GT(r.control.sleeps, 0u);
  EXPECT_GT(r.control.gating_savings.value(), 0.0);
  EXPECT_TRUE(r.control.all_dispatches_available);
  EXPECT_LT(r.energy.value(), base.energy.value());
  // The savings are real joules, not accounting noise: at least the
  // wake penalties were recovered several times over.
  EXPECT_GT(r.control.gating_savings.value(),
            2.0 * r.control.wake_energy.value());
}

TEST(Control, DvfsGovernorTradesFrequencyForLatencyHeadroom) {
  // Generous SLO at low utilization: the governor must step nodes down
  // to cheaper operating points (point changes > 0) and cut energy; the
  // p99 must stay within the SLO it was given headroom against.
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  auto classes = one_class();
  const double capacity = cluster_capacity_per_s(cluster, classes);
  classes[0].slo = SloTarget{Seconds{400.0 / capacity}, 0.99};

  TrafficOptions open;
  open.requests = 6000;
  open.seed = 3;
  TrafficOptions paced = open;
  paced.control.controller = control::make_dvfs_governor({});
  paced.control.period = Seconds{2.0};

  const auto arrivals = make_poisson(0.2 * capacity);
  const auto base = simulate_traffic(cluster, classes, *arrivals, open);
  const auto r = simulate_traffic(cluster, classes, *arrivals, paced);

  EXPECT_EQ(r.completed, open.requests);
  EXPECT_GT(r.control.point_changes, 0u);
  EXPECT_EQ(r.control.sleeps, 0u);  // the governor never gates
  EXPECT_LT(r.energy.value(), base.energy.value());
  EXPECT_LE(r.sojourn.p99.value(), classes[0].slo.latency.value());
}

TEST(Control, PowerCapThrottlesBeforeShedding) {
  // Cap set below the fleet's worst-case draw at full frequency but
  // above it at min frequency: the enforcer must throttle operating
  // points, never shed a request, and keep every request completing.
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  TrafficOptions options;
  options.requests = 4000;
  options.seed = 9;
  // Cap at 85% of the fleet's all-busy draw at configured points: below
  // the worst case (so the enforcer must act) yet comfortably above the
  // all-min-frequency draw (so throttling alone satisfies it).
  const model::TimeEnergyModel m(cluster, wl("EP"));
  options.control.controller = control::make_power_cap(
      {.cap = m.busy_power() * 0.85});
  options.control.period = Seconds{1.0};
  const auto r = simulate_traffic(cluster, one_class(),
                                  *make_poisson(40.0), options);
  EXPECT_EQ(r.completed, options.requests);
  EXPECT_EQ(r.shed_bucket + r.shed_queue, 0u);
  EXPECT_GT(r.control.point_changes, 0u);
  EXPECT_TRUE(r.control.all_dispatches_available);
}

// -------------------------------------------------------------- keystone

/// The paper's Table 8 question asked offline — which static 1 kW mix is
/// most energy-proportional? — answered online: a closed-loop power-
/// gated fleet must beat EVERY static mix on energy-per-request at the
/// same p99-vs-SLO bar, under both diurnal and MMPP (bursty Markov-
/// modulated) arrival processes.
class Keystone : public ::testing::TestWithParam<const char*> {};

TEST_P(Keystone, ClosedLoopBeatsEveryStaticTable8Mix) {
  const std::string shape = GetParam();
  const auto mixes = config::paper_budget_mixes();
  ASSERT_GE(mixes.size(), 5u);
  const auto classes = one_class();

  // Arrival rate every mix can absorb: 30% of the weakest mix's capacity
  // on average (diurnal swings to 1.6x of that at peak).
  double min_capacity = std::numeric_limits<double>::infinity();
  for (const auto& mix : mixes)
    min_capacity =
        std::min(min_capacity, cluster_capacity_per_s(mix, classes));
  const double rate = 0.3 * min_capacity;

  const auto make_arrivals = [&]() -> std::unique_ptr<ArrivalProcess> {
    if (shape == "diurnal")
      return make_diurnal(rate, 0.6, Seconds{400.0 / rate});
    return make_mmpp({{0.4 * rate, Seconds{150.0 / rate}},
                      {2.2 * rate, Seconds{75.0 / rate}}});
  };

  TrafficOptions open;
  open.requests = 6000;
  open.seed = 42;

  // Static sweep: every Table 8 mix, open loop.
  std::vector<double> static_epr, static_p99;
  for (const auto& mix : mixes) {
    const auto r =
        simulate_traffic(mix, classes, *make_arrivals(), open);
    EXPECT_EQ(r.completed, open.requests) << mix.label();
    static_epr.push_back(r.energy_per_request.value());
    static_p99.push_back(r.sojourn.p99.value());
  }

  // Closed loop on the most gating-friendly mix: the all-wimpy fleet
  // (mixes are ordered from the all-K10 end, so .back() is 128A9) has
  // the finest power-gating granularity.
  TrafficOptions closed = open;
  closed.control.controller = control::make_power_gate({});
  closed.control.period = Seconds{20.0 / rate};
  closed.control.wake_delay = Seconds{5.0 / rate};
  closed.control.wake_energy = Joules{5.0};
  const auto controlled =
      simulate_traffic(mixes.back(), classes, *make_arrivals(), closed);
  EXPECT_EQ(controlled.completed, open.requests);
  EXPECT_GT(controlled.control.sleeps, 0u);

  // Equal p99-vs-SLO bar: the SLO is set so every static mix meets it
  // (4x the worst static p99); the controlled run must meet it too...
  const double slo =
      4.0 * *std::max_element(static_p99.begin(), static_p99.end());
  EXPECT_LE(controlled.sojourn.p99.value(), slo)
      << "closed loop blew the p99 bar every static mix meets";
  // ...and beat every static mix on energy per request.
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    EXPECT_LT(controlled.energy_per_request.value(), static_epr[i])
        << "static mix " << mixes[i].label() << " (" << shape
        << ") beat the closed loop: " << static_epr[i] << " vs "
        << controlled.energy_per_request.value() << " J/request";
  }
}

INSTANTIATE_TEST_SUITE_P(ArrivalShapes, Keystone,
                         ::testing::Values("diurnal", "mmpp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ------------------------------------------------------------ validation

TEST(Control, Validation) {
  const auto cluster = model::make_a9_k10_cluster(1, 1);
  TrafficOptions options;
  options.control.controller = control::make_frozen();
  options.control.period = Seconds{0.0};
  EXPECT_THROW((void)simulate_traffic(cluster, one_class(),
                                      *make_poisson(10.0), options),
               PreconditionError);
  options.control.period = Seconds{1.0};
  options.control.min_event_spacing = Seconds{-1.0};
  EXPECT_THROW((void)simulate_traffic(cluster, one_class(),
                                      *make_poisson(10.0), options),
               PreconditionError);
}

TEST(Control, SummaryJsonRoundTrips) {
  const auto cluster = model::make_a9_k10_cluster(4, 1);
  TrafficOptions options;
  options.requests = 2000;
  options.control.controller = control::make_power_gate({});
  options.control.period = Seconds{1.0};
  options.control.wake_delay = Seconds{0.5};
  const auto r = simulate_traffic(cluster, one_class(),
                                  *make_diurnal(15.0, 0.5, Seconds{30.0}),
                                  options);
  const JsonValue j = r.control.to_json();
  EXPECT_TRUE(j.at("enabled").as_bool());
  EXPECT_EQ(j.at("controller").as_string(), "power_gate");
  EXPECT_EQ(static_cast<std::uint64_t>(j.at("ticks").as_int()),
            r.control.ticks);
  EXPECT_EQ(static_cast<std::uint64_t>(j.at("sleeps").as_int()),
            r.control.sleeps);
  const JsonValue parsed = JsonValue::parse(j.dump());
  EXPECT_EQ(parsed.dump(), j.dump());
}

}  // namespace
