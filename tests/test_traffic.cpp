// hcep::traffic — request-level load generation, admission control and
// SLO accounting. The keystone check: with one node, one class and
// Poisson arrivals the simulator IS an M/D/1 queue, so its measured
// waiting/response statistics must match queueing::MD1's closed forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hcep/hw/catalog.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/run_report.hpp"
#include "hcep/queueing/md1.hpp"
#include "hcep/traffic/admission.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::traffic;
using namespace hcep::literals;

const workload::Workload& wl(const std::string& name) {
  static const auto kCatalog = workload::paper_workloads();
  for (const auto& w : kCatalog)
    if (w.name == name) return w;
  throw std::runtime_error("missing workload " + name);
}

std::vector<TrafficClass> one_class(const std::string& name = "EP") {
  return {TrafficClass{wl(name), 1.0, SloTarget{}}};
}

// ---------------------------------------------------------------- keystone

class PoissonVsMD1 : public ::testing::TestWithParam<double> {};

TEST_P(PoissonVsMD1, MatchesClosedForms) {
  // Single K10 node, one class, no admission control: an M/D/1 queue.
  const double rho = GetParam();
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  const auto classes = one_class();
  const double capacity = cluster_capacity_per_s(cluster, classes);
  const Seconds service{1.0 / capacity};
  const double lambda = rho * capacity;

  TrafficOptions options;
  options.requests = 200000;
  options.seed = 20160919;
  const auto r =
      simulate_traffic(cluster, classes, *make_poisson(lambda), options);
  ASSERT_EQ(r.completed, options.requests);

  const queueing::MD1 q(service, lambda);
  EXPECT_NEAR(r.wait.mean.value(), q.mean_wait().value(),
              0.1 * q.mean_wait().value() + 0.02 * service.value())
      << "rho=" << rho;
  EXPECT_NEAR(r.sojourn.p95.value(), q.response_percentile(95.0).value(),
              0.1 * q.response_percentile(95.0).value())
      << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, PoissonVsMD1,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.8, 0.9),
                         [](const auto& inst) {
                           return "rho" + std::to_string(static_cast<int>(
                                              inst.param * 100.0));
                         });

// ------------------------------------------------------------- invariants

TEST(Traffic, SojournIsWaitPlusServiceWithoutAdmission) {
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  TrafficOptions options;
  options.requests = 5000;
  const auto r = simulate_traffic(cluster, one_class(), *make_poisson(50.0),
                                  options);
  EXPECT_EQ(r.offered, 5000u);
  EXPECT_EQ(r.admitted, 5000u);
  EXPECT_EQ(r.completed, 5000u);
  EXPECT_EQ(r.shed_bucket + r.shed_queue, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_NEAR(r.sojourn.mean.value(),
              r.wait.mean.value() + r.service.mean.value(), 1e-9);
  EXPECT_GT(r.energy.value(), 0.0);
  EXPECT_GT(r.energy_per_request.value(), 0.0);
  EXPECT_GT(r.average_power.value(), 0.0);
}

TEST(Traffic, SameSeedRunsAreByteIdentical) {
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  TrafficOptions options;
  options.requests = 2000;
  options.seed = 7;
  const auto a = simulate_traffic(cluster, one_class(),
                                  *make_bursty(20.0, 5_s, 200.0, 1_s),
                                  options);
  const auto b = simulate_traffic(cluster, one_class(),
                                  *make_bursty(20.0, 5_s, 200.0, 1_s),
                                  options);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(Traffic, SameSeedRunReportsAreByteIdentical) {
  const auto cluster = model::make_a9_k10_cluster(1, 1);
  TrafficOptions options;
  options.requests = 1000;
  const auto report = [&]() {
    obs::Observer observer;
    obs::ScopedObserver scope(observer);
    const auto r = simulate_traffic(cluster, one_class(),
                                    *make_poisson(40.0), options);
    EXPECT_EQ(r.completed, 1000u);
    const auto trace = obs::Trace::from(observer.tracer);
    const auto snapshot = observer.metrics.snapshot();
    return obs::make_run_report(trace, "traffic", 1.0, &snapshot).json();
  };
  EXPECT_EQ(report(), report());
}

#if HCEP_OBS
TEST(Traffic, ObsCountersLedgerTheRun) {
  const auto cluster = model::make_a9_k10_cluster(1, 0);
  obs::Observer observer;
  obs::ScopedObserver scope(observer);
  TrafficOptions options;
  options.requests = 800;
  options.admission.bucket_rate_per_s = 5.0;
  options.admission.bucket_burst = 10.0;
  options.retry.max_attempts = 2;
  options.retry.base_backoff = Seconds{0.05};
  const auto r = simulate_traffic(cluster, one_class(),
                                  *make_poisson(50.0), options);
  const auto snap = observer.metrics.snapshot();
  EXPECT_EQ(snap.counter("traffic.offered"), r.offered);
  EXPECT_EQ(snap.counter("traffic.admitted"), r.admitted);
  EXPECT_EQ(snap.counter("traffic.shed"), r.shed_bucket + r.shed_queue);
  EXPECT_EQ(snap.counter("traffic.retries"), r.retries);
  EXPECT_EQ(snap.counter("traffic.completed"), r.completed);
  EXPECT_EQ(snap.counter("traffic.failed"), r.failed);
  const auto* h = snap.histogram("traffic.sojourn_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, r.completed);
}
#endif

// ------------------------------------------------------ exact summaries

/// The pre-merge algorithm, kept as the oracle: sort the concatenation,
/// sum in sorted order, and take each percentile by sorting a copy and
/// interpolating between closest ranks, written out here so the oracle
/// shares no code with percentile_sorted.
LatencySummary reference_summary(std::vector<double> samples) {
  const auto percentile_of_copy = [](std::vector<double> copy, double p) {
    std::sort(copy.begin(), copy.end());
    if (copy.size() == 1) return copy.front();
    const double rank = p / 100.0 * static_cast<double>(copy.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, copy.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return copy[lo] + frac * (copy[hi] - copy[lo]);
  };
  LatencySummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  out.mean = Seconds{sum / static_cast<double>(samples.size())};
  out.p50 = Seconds{percentile_of_copy(samples, 50.0)};
  out.p95 = Seconds{percentile_of_copy(samples, 95.0)};
  out.p99 = Seconds{percentile_of_copy(samples, 99.0)};
  out.max = Seconds{samples.back()};
  return out;
}

void expect_bit_identical(const LatencySummary& got,
                          const LatencySummary& want,
                          const std::string& what) {
  const auto bits = [](Seconds s) {
    return std::bit_cast<std::uint64_t>(s.value());
  };
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(bits(got.mean), bits(want.mean)) << what;
  EXPECT_EQ(bits(got.p50), bits(want.p50)) << what;
  EXPECT_EQ(bits(got.p95), bits(want.p95)) << what;
  EXPECT_EQ(bits(got.p99), bits(want.p99)) << what;
  EXPECT_EQ(bits(got.max), bits(want.max)) << what;
}

/// Sorts every run, then checks from_sorted_runs and from_samples (on
/// the concatenation) against the oracle.
void check_runs(std::vector<std::vector<double>> runs,
                const std::string& what) {
  std::vector<double> all;
  for (auto& r : runs) {
    all.insert(all.end(), r.begin(), r.end());
    std::sort(r.begin(), r.end());
  }
  const LatencySummary want = reference_summary(all);
  const std::vector<std::span<const double>> views(runs.begin(), runs.end());
  expect_bit_identical(LatencySummary::from_sorted_runs(views), want,
                       what + " (runs)");
  expect_bit_identical(LatencySummary::from_samples(all), want,
                       what + " (samples)");
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end())) << what;
}

TEST(LatencySummaryTest, SortedRunsMatchTheSortedConcatenation) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // 1-12 runs, some empty, with exponential, duplicate-heavy and
    // zero-heavy values.
    const std::size_t k = 1 + rng.uniform_int(12);
    std::vector<std::vector<double>> runs(k);
    for (auto& r : runs) {
      const std::size_t n =
          rng.uniform_int(4) == 0 ? 0 : rng.uniform_int(300);
      for (std::size_t i = 0; i < n; ++i) {
        if (trial % 3 == 0)
          r.push_back(rng.exponential(3.0));
        else if (trial % 3 == 1)
          r.push_back(static_cast<double>(rng.uniform_int(5)) * 0.1);
        else
          r.push_back(rng.uniform_int(3) == 0 ? 0.0 : rng.uniform01());
      }
    }
    check_runs(std::move(runs), "trial " + std::to_string(trial));
  }
}

TEST(LatencySummaryTest, EdgeCases) {
  check_runs({}, "no runs");
  check_runs({{}, {}}, "empty runs");
  check_runs({{4.25}}, "one sample");
  check_runs({{}, {0.5}, {}}, "one sample among empty runs");
  check_runs({{0.0, 0.0}, {0.0}}, "all zeros");
  check_runs({{2.0, 2.0, 2.0}, {2.0, 2.0}}, "all duplicates");
  check_runs({{1.0, 3.0}, {2.0}, {0.0, 3.0, 3.0}}, "interleaved ties");
  std::vector<double> none;
  EXPECT_EQ(LatencySummary::from_samples(none).count, 0u);
}

TEST(LatencySummaryTest, UnsortedRunIsRejected) {
  const std::vector<double> ascending = {0.5, 1.0};
  const std::vector<double> descending = {2.0, 1.0};
  const std::vector<std::span<const double>> runs = {ascending, descending};
  EXPECT_THROW((void)LatencySummary::from_sorted_runs(runs),
               PreconditionError);
}

TEST(Traffic, SojournSummariesMatchTheRequestRecords) {
  // Bursty two-class overload with token bucket, queue shedding and
  // retries: the global and per-class sojourn summaries must equal an
  // exact summary over the completed requests' recorded sojourns, and
  // the records must come back in arrival-index order.
  const auto cluster = model::make_a9_k10_cluster(6, 3);
  const std::vector<TrafficClass> classes = {
      TrafficClass{wl("memcached"), 0.8, SloTarget{}},
      TrafficClass{wl("x264"), 0.2, SloTarget{}}};
  const double cap = cluster_capacity_per_s(cluster, classes);
  TrafficOptions options;
  options.requests = 20000;
  options.seed = 5;
  options.admission.bucket_rate_per_s = cap;
  options.admission.bucket_burst = 16.0;
  options.admission.max_queue_depth = 12;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = Seconds{20.0 / cap};
  options.record_requests = true;
  const auto arrivals = make_bursty(0.6 * cap, Seconds{400.0 / cap},
                                    1.8 * cap, Seconds{100.0 / cap});
  const auto r = simulate_traffic(cluster, classes, *arrivals, options);
  ASSERT_GT(r.shed_bucket, 0u);
  ASSERT_GT(r.shed_queue, 0u);
  ASSERT_GT(r.retries, 0u);
  ASSERT_GT(r.failed, 0u);
  ASSERT_EQ(r.requests.size(), r.offered);
  std::vector<double> all;
  std::vector<std::vector<double>> per_class(classes.size());
  for (std::size_t i = 0; i < r.requests.size(); ++i) {
    const RequestRecord& q = r.requests[i];
    ASSERT_EQ(q.index, i);
    if (q.failed != 0) continue;
    all.push_back(q.sojourn.value());
    per_class[q.cls].push_back(q.sojourn.value());
  }
  expect_bit_identical(r.sojourn, LatencySummary::from_samples(all), "all");
  for (std::size_t c = 0; c < classes.size(); ++c)
    expect_bit_identical(r.classes[c].sojourn,
                         LatencySummary::from_samples(per_class[c]),
                         "class " + std::to_string(c));
}

// ------------------------------------------------------ admission control

TEST(TokenBucketTest, StartsFullAndRefillsAtRate) {
  TokenBucket bucket(10.0, 3.0);
  EXPECT_TRUE(bucket.try_acquire(Seconds{0.0}));
  EXPECT_TRUE(bucket.try_acquire(Seconds{0.0}));
  EXPECT_TRUE(bucket.try_acquire(Seconds{0.0}));
  EXPECT_FALSE(bucket.try_acquire(Seconds{0.0}));  // burst exhausted
  // 0.1 s at 10 tokens/s refills exactly one token.
  EXPECT_TRUE(bucket.try_acquire(Seconds{0.1}));
  EXPECT_FALSE(bucket.try_acquire(Seconds{0.1}));
  // Level is capped at burst no matter how long the idle gap.
  EXPECT_NEAR(bucket.level(Seconds{1000.0}), 3.0, 1e-12);
}

TEST(TokenBucketTest, RejectsBackwardsTimeAndBadParameters) {
  EXPECT_THROW(TokenBucket(0.0, 1.0), PreconditionError);
  EXPECT_THROW(TokenBucket(1.0, 0.0), PreconditionError);
  TokenBucket bucket(1.0, 1.0);
  EXPECT_TRUE(bucket.try_acquire(Seconds{5.0}));
  EXPECT_THROW((void)bucket.try_acquire(Seconds{4.0}), PreconditionError);
  EXPECT_THROW((void)bucket.try_acquire(Seconds{5.0}, 0.0),
               PreconditionError);
}

TEST(RetryPolicyTest, ExponentialBackoff) {
  RetryPolicy retry;
  retry.base_backoff = Seconds{0.1};
  retry.multiplier = 2.0;
  EXPECT_NEAR(retry.backoff_after(1).value(), 0.1, 1e-12);
  EXPECT_NEAR(retry.backoff_after(2).value(), 0.2, 1e-12);
  EXPECT_NEAR(retry.backoff_after(4).value(), 0.8, 1e-12);
  EXPECT_THROW((void)retry.backoff_after(0), PreconditionError);
}

TEST(Traffic, BucketShedsAndRetriesAreAccounted) {
  // Offered rate far above the bucket's sustained rate: the bucket must
  // shed, retries must re-enter, and every request must resolve.
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  TrafficOptions options;
  options.requests = 2000;
  options.admission.bucket_rate_per_s = 10.0;
  options.admission.bucket_burst = 5.0;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = Seconds{0.01};
  const auto r = simulate_traffic(cluster, one_class(),
                                  *make_poisson(100.0), options);
  EXPECT_GT(r.shed_bucket, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.failed, 0u);
  EXPECT_EQ(r.completed + r.failed, r.offered);
  EXPECT_EQ(r.admitted, r.completed);
  // Sojourn of retried completions includes backoff: mean sojourn must be
  // at least mean wait + mean service.
  EXPECT_GE(r.sojourn.mean.value(),
            r.wait.mean.value() + r.service.mean.value() - 1e-9);
}

TEST(Traffic, QueueDepthSheddingBoundsTheWait) {
  // Overloaded single node with queue-depth shedding: no admitted request
  // can wait longer than the depth bound times the service time.
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  const auto classes = one_class();
  const double capacity = cluster_capacity_per_s(cluster, classes);
  TrafficOptions options;
  options.requests = 3000;
  options.admission.max_queue_depth = 4;
  const auto r = simulate_traffic(cluster, classes,
                                  *make_deterministic(2.0 * capacity),
                                  options);
  EXPECT_GT(r.shed_queue, 0u);
  EXPECT_GT(r.failed, 0u);  // max_attempts defaults to 1: shed = failed
  EXPECT_EQ(r.shed_queue, r.failed);
  const double bound = 4.0 / capacity;
  EXPECT_LE(r.wait.max.value(), bound + 1e-9);
}

// --------------------------------------------------------- SLO accounting

TEST(Traffic, SloViolationsAreCounted) {
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  auto classes = one_class();
  classes[0].slo = SloTarget{Seconds{1e-9}, 0.95};  // impossible SLO
  TrafficOptions options;
  options.requests = 500;
  const auto strict = simulate_traffic(cluster, classes,
                                       *make_poisson(10.0), options);
  ASSERT_EQ(strict.classes.size(), 1u);
  EXPECT_EQ(strict.classes[0].slo_violations, strict.completed);
  EXPECT_DOUBLE_EQ(strict.classes[0].violation_fraction(), 1.0);
  EXPECT_FALSE(strict.classes[0].slo_met());

  classes[0].slo = SloTarget{Seconds{1e9}, 0.95};  // trivially met
  const auto loose = simulate_traffic(cluster, classes,
                                      *make_poisson(10.0), options);
  EXPECT_EQ(loose.classes[0].slo_violations, 0u);
  EXPECT_TRUE(loose.classes[0].slo_met());
}

TEST(Traffic, MultiClassWeightsSplitTheStream) {
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  std::vector<TrafficClass> classes = {
      TrafficClass{wl("EP"), 3.0, SloTarget{}},
      TrafficClass{wl("memcached"), 1.0, SloTarget{}},
  };
  TrafficOptions options;
  options.requests = 8000;
  const auto r = simulate_traffic(cluster, classes, *make_poisson(100.0),
                                  options);
  ASSERT_EQ(r.classes.size(), 2u);
  EXPECT_EQ(r.classes[0].offered + r.classes[1].offered, r.offered);
  EXPECT_EQ(r.classes[0].completed + r.classes[1].completed, r.completed);
  const double share = static_cast<double>(r.classes[0].offered) /
                       static_cast<double>(r.offered);
  EXPECT_NEAR(share, 0.75, 0.03);
  for (const auto& c : r.classes)
    EXPECT_GT(c.energy_per_request.value(), 0.0);
}

// ------------------------------------------------------------ replay I/O

TEST(Traffic, ReplayTraceDrivesTheRunAndExhausts) {
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  const auto arrivals = make_replay(
      {Seconds{0.5}, Seconds{1.0}, Seconds{1.5}}, /*loop=*/false);
  TrafficOptions options;
  options.requests = 10;  // more than the trace holds
  const auto r = simulate_traffic(cluster, one_class(), *arrivals, options);
  EXPECT_EQ(r.offered, 3u);
  EXPECT_EQ(r.completed, 3u);
}

TEST(Traffic, CsvAndJsonlParsersRoundTrip) {
  const auto csv = read_arrivals_csv("ts,node\n0.25,a\n0.75,b\n2,c\n");
  ASSERT_EQ(csv.size(), 3u);
  EXPECT_DOUBLE_EQ(csv[1].value(), 0.75);
  const auto jsonl = read_arrivals_jsonl(
      "{\"ts\":0.25}\n{\"ts\":0.75,\"node\":\"b\"}\n");
  ASSERT_EQ(jsonl.size(), 2u);
  EXPECT_DOUBLE_EQ(jsonl[1].value(), 0.75);
  EXPECT_THROW((void)read_arrivals_csv("ts\n0.5\nnot-a-number\n"),
               PreconditionError);
  EXPECT_THROW((void)read_arrivals_jsonl("{\"no_ts\":1}\n"),
               PreconditionError);
  EXPECT_THROW((void)read_arrivals_csv("ts\n2.0\n1.0\n"),
               PreconditionError);  // must be sorted
}

// ----------------------------------------------------------- other shapes

TEST(Traffic, BurstyAndDiurnalGeneratorsCompleteTheirLoad) {
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  TrafficOptions options;
  options.requests = 3000;
  std::vector<std::unique_ptr<ArrivalProcess>> generators;
  generators.push_back(make_bursty(30.0, 2_s, 300.0, 0.2_s));
  generators.push_back(make_diurnal(60.0, 0.5, Seconds{20.0}));
  for (const auto& gen : generators) {
    const auto r = simulate_traffic(cluster, one_class(), *gen, options);
    EXPECT_EQ(r.completed, options.requests) << gen->name();
    EXPECT_GT(r.makespan.value(), 0.0) << gen->name();
  }
}

TEST(Traffic, CapacityFollowsClusterSize) {
  const auto one = model::make_a9_k10_cluster(0, 1);
  const auto two = model::make_a9_k10_cluster(0, 2);
  const auto classes = one_class();
  const double c1 = cluster_capacity_per_s(one, classes);
  const double c2 = cluster_capacity_per_s(two, classes);
  EXPECT_GT(c1, 0.0);
  EXPECT_NEAR(c2, 2.0 * c1, 1e-9 * c1);
}

// ------------------------------------------------------- dispatch policies
//
// Atomic requests on a heterogeneous floor: each runs on the one node the
// policy picks, so node choice sets both latency and energy.

TrafficResult dispatch_run(const model::ClusterSpec& cluster,
                           const std::vector<TrafficClass>& classes,
                           DispatchPolicy policy, double utilization,
                           std::uint64_t requests) {
  TrafficOptions options;
  options.policy = policy;
  options.requests = requests;
  options.seed = 71;
  const auto arrivals =
      make_poisson(utilization * cluster_capacity_per_s(cluster, classes));
  return simulate_traffic(cluster, classes, *arrivals, options);
}

std::uint64_t served_by(const TrafficResult& r, const std::string& type) {
  for (const auto& n : r.nodes)
    if (n.node_name == type) return n.jobs_served;
  return 0;
}

TEST(Dispatch, PolicyNamesRoundTrip) {
  const auto policies = all_dispatch_policies();
  EXPECT_EQ(policies.size(), 5u);
  for (const auto p : policies)
    EXPECT_EQ(parse_dispatch_policy(to_string(p)), p);
  EXPECT_EQ(to_string(DispatchPolicy::kRoundRobin), "round-robin");
  EXPECT_THROW((void)parse_dispatch_policy("shortest-queue"),
               PreconditionError);
  EXPECT_THROW((void)parse_dispatch_policy(""), PreconditionError);
}

class EveryPolicy : public ::testing::TestWithParam<DispatchPolicy> {};

TEST_P(EveryPolicy, CompletesAllJobsAndAccountsEnergy) {
  const auto cluster = model::make_a9_k10_cluster(6, 2);
  const auto r = dispatch_run(cluster, one_class(), GetParam(), 0.5, 1500);
  EXPECT_EQ(r.offered, 1500u);
  EXPECT_EQ(r.completed, 1500u);
  EXPECT_GT(r.makespan.value(), 0.0);
  EXPECT_GT(r.energy.value(), 0.0);
  EXPECT_GT(r.sojourn.p95, r.sojourn.mean);
  // Energy per request is the whole ledger over the completions.
  EXPECT_DOUBLE_EQ(r.energy_per_request.value() * 1500.0, r.energy.value());

  std::uint64_t served = 0;
  for (const auto& n : r.nodes) {
    served += n.jobs_served;
    EXPECT_GE(n.busy_fraction, 0.0);
    EXPECT_LE(n.busy_fraction, 1.0 + 1e-9);
  }
  EXPECT_EQ(served, r.completed);
}

TEST_P(EveryPolicy, DeterministicForFixedSeed) {
  const auto cluster = model::make_a9_k10_cluster(4, 1);
  const auto a = dispatch_run(cluster, one_class(), GetParam(), 0.5, 500);
  const auto b = dispatch_run(cluster, one_class(), GetParam(), 0.5, 500);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EveryPolicy,
                         ::testing::ValuesIn(all_dispatch_policies()),
                         [](const auto& inst) {
                           std::string n = to_string(inst.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(Dispatch, FastestFirstBeatsRoundRobinOnP95) {
  // On a heterogeneous floor with EP (K10 ~6.7x faster per node),
  // completion-time-aware dispatch must beat round-robin on p95.
  const auto cluster = model::make_a9_k10_cluster(8, 2);
  const auto smart = dispatch_run(cluster, one_class(),
                                  DispatchPolicy::kFastestFirst, 0.6, 3000);
  const auto blind = dispatch_run(cluster, one_class(),
                                  DispatchPolicy::kRoundRobin, 0.6, 3000);
  EXPECT_LT(smart.sojourn.p95.value(), blind.sojourn.p95.value());
}

TEST(Dispatch, LeastEnergyPrefersTheEfficientType) {
  // For EP the A9 costs less dynamic energy per job; the least-energy
  // policy must route the bulk of the jobs there, and draw no more
  // average power than fastest-first.
  const auto cluster = model::make_a9_k10_cluster(6, 2);
  const auto green = dispatch_run(cluster, one_class(),
                                  DispatchPolicy::kLeastEnergy, 0.3, 2000);
  const auto fast = dispatch_run(cluster, one_class(),
                                 DispatchPolicy::kFastestFirst, 0.3, 2000);
  EXPECT_GT(served_by(green, "A9"), served_by(green, "K10"));
  EXPECT_LE(green.average_power.value(), fast.average_power.value() * 1.05);
}

TEST(Dispatch, MixedStreamSharesFollowWeights) {
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  const std::vector<TrafficClass> classes{{wl("EP"), 3.0, SloTarget{}},
                                          {wl("x264"), 1.0, SloTarget{}}};
  const auto r = dispatch_run(cluster, classes,
                              DispatchPolicy::kFastestFirst, 0.5, 4000);
  ASSERT_EQ(r.classes.size(), 2u);
  EXPECT_EQ(r.classes[0].completed + r.classes[1].completed, 4000u);
  const double share = static_cast<double>(r.classes[0].completed) / 4000.0;
  EXPECT_NEAR(share, 0.75, 0.03);  // weight 3:1
  // x264 jobs dwarf EP jobs; their tails must separate.
  EXPECT_GT(r.classes[1].sojourn.p95.value(),
            r.classes[0].sojourn.p95.value());
}

TEST(Dispatch, RejectsWorkloadWithoutDemand) {
  workload::CatalogOptions copts;
  copts.nodes = {hw::cortex_a9()};
  const auto a9_only = workload::make_workload("EP", copts);
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  EXPECT_THROW((void)simulate_traffic(cluster, {TrafficClass{a9_only}},
                                      *make_poisson(1.0), TrafficOptions{}),
               PreconditionError);
}

TEST(Traffic, Validation) {
  const auto cluster = model::make_a9_k10_cluster(1, 1);
  TrafficOptions options;
  EXPECT_THROW((void)simulate_traffic(cluster, {}, *make_poisson(1.0),
                                      options),
               PreconditionError);
  auto zero_weight = one_class();
  zero_weight[0].weight = 0.0;
  EXPECT_THROW((void)simulate_traffic(cluster, zero_weight,
                                      *make_poisson(1.0), options),
               PreconditionError);
  options.requests = 0;
  EXPECT_THROW((void)simulate_traffic(cluster, one_class(),
                                      *make_poisson(1.0), options),
               PreconditionError);
  EXPECT_THROW((void)make_poisson(0.0), PreconditionError);
  EXPECT_THROW((void)make_diurnal(10.0, 1.5, Seconds{60.0}),
               PreconditionError);
  EXPECT_THROW((void)make_replay({}), PreconditionError);
}

}  // namespace
