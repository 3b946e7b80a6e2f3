// Autoscaling under live traffic: the control::PowerGateController
// parks and wakes whole nodes from DES-clock ticks inside
// traffic::simulate_traffic. Every assertion is derived from the load or
// the ledger, never from event positions in time or the wall clock — the
// suite is deterministic for a fixed seed by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "hcep/control/controllers.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::literals;

const workload::Workload& ep() {
  static const workload::Workload kEp = workload::make_workload("EP");
  return kEp;
}

std::vector<traffic::TrafficClass> ep_class() {
  return {traffic::TrafficClass{ep(), 1.0, traffic::SloTarget{}}};
}

traffic::TrafficResult gated_run(
    std::unique_ptr<traffic::ArrivalProcess> arrivals, double rate,
    double headroom, bool gated, Seconds stream_window = Seconds{0.0}) {
  const auto cluster = model::make_a9_k10_cluster(12, 2);
  traffic::TrafficOptions opts;
  opts.requests = 4000;
  opts.seed = 99;
  opts.stream.window = stream_window;
  if (gated) {
    opts.control.controller =
        control::make_power_gate({.headroom = headroom});
    opts.control.period = Seconds{20.0 / rate};
    opts.control.wake_delay = Seconds{5.0 / rate};
    opts.control.wake_energy = Joules{5.0};
  }
  return traffic::simulate_traffic(cluster, ep_class(), *arrivals, opts);
}

double diurnal_rate() {
  static const double kRate =
      0.3 * traffic::cluster_capacity_per_s(model::make_a9_k10_cluster(12, 2),
                                            ep_class());
  return kRate;
}

std::unique_ptr<traffic::ArrivalProcess> diurnal_arrivals() {
  const double rate = diurnal_rate();
  return traffic::make_diurnal(rate, 0.7, Seconds{400.0 / rate});
}

TEST(AutoscaleClosedLoop, SavesEnergyAgainstAlwaysOn) {
  const double rate = diurnal_rate();
  const auto open = gated_run(diurnal_arrivals(), rate, 0.25, false);
  const auto gated = gated_run(diurnal_arrivals(), rate, 0.25, true);
  // Same completions, less energy: the gated fleet parks the trough.
  EXPECT_EQ(gated.completed, open.completed);
  EXPECT_GT(gated.control.sleeps, 0u);
  EXPECT_TRUE(gated.control.all_dispatches_available);
  EXPECT_LT(gated.energy.value(), open.energy.value());
  EXPECT_GT(gated.control.gating_savings.value(), 0.0);
}

TEST(AutoscaleClosedLoop, HeadroomBoundsTheLatencyDamage) {
  // More headroom -> more awake capacity -> more idle burn, less
  // queueing.
  const double rate = diurnal_rate();
  const auto lean = gated_run(diurnal_arrivals(), rate, 0.05, true);
  const auto generous = gated_run(diurnal_arrivals(), rate, 1.0, true);
  EXPECT_LT(lean.energy.value(), generous.energy.value());
  EXPECT_GE(lean.control.gating_savings.value(),
            generous.control.gating_savings.value());
  EXPECT_GE(lean.sojourn.p99.value(), generous.sojourn.p99.value());
}

TEST(AutoscaleClosedLoop, TroughDrawFallsFarBelowTheAlwaysOnFloor) {
  // The effective-profile claim on the streamed timeline: in its lightest
  // full window the gated fleet draws well under half of what the
  // always-on fleet draws in its own lightest window (which can never
  // fall below the idle floor).
  const double rate = diurnal_rate();
  const Seconds window{25.0 / rate};
  const auto lightest = [&](const traffic::TrafficResult& r) {
    const auto& tl = r.timeline;
    double lo = std::numeric_limits<double>::infinity();
    for (const auto& w : tl.windows) {
      const double width = std::min(w.t1, tl.horizon).value() - w.t0.value();
      if (width < tl.window.value()) continue;
      lo = std::min(lo, w.energy.value() / width);
    }
    return lo;
  };
  const auto open = gated_run(diurnal_arrivals(), rate, 0.25, false, window);
  const auto gated = gated_run(diurnal_arrivals(), rate, 0.25, true, window);
  ASSERT_GT(open.timeline.windows.size(), 8u);
  EXPECT_LT(lightest(gated), 0.5 * lightest(open));
}

TEST(AutoscaleClosedLoop, FlatLoadDoesNotThrash) {
  // Constant load: after the initial park-down the controller must hold
  // the fleet steady — wake transitions stay a small fraction of ticks.
  const double rate = diurnal_rate();
  const auto r =
      gated_run(traffic::make_deterministic(rate), rate, 0.25, true);
  ASSERT_GT(r.control.ticks, 20u);
  EXPECT_GT(r.control.sleeps, 0u);
  EXPECT_LE(r.control.wakes, r.control.ticks / 4);
}

TEST(AutoscaleClosedLoop, DeterministicForFixedSeed) {
  const double rate = diurnal_rate();
  const auto a = gated_run(diurnal_arrivals(), rate, 0.25, true);
  const auto b = gated_run(diurnal_arrivals(), rate, 0.25, true);
  // Byte-identical, not merely close: same JSON bytes, same ledgers.
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.control.to_json().dump(), b.control.to_json().dump());
}

}  // namespace
