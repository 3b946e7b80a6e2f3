// `traffic`: request-level response time (Figs 11-12) through
// simulate_traffic's generator path on one paper-sized mix, 25 A9 + 7
// K10. Two classes with SLOs (interactive memcached, batch x264), bursty
// MMPP arrivals whose bursts exceed capacity, and token-bucket plus
// queue-depth admission with retries, so shedding, retries and failures
// all fire. 100k requests per call, so the exact-sample vectors exceed
// L2. It loads the arrival, admission, dispatch, DES and summary layers
// and uses no controller, stream or router.
#include <algorithm>

#include "hcep/des/scheduler.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/traffic/admission.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/util/rng.hpp"
#include "pipeline.hpp"

namespace perfbench {
namespace {

using namespace hcep;

constexpr std::uint64_t kRequests = 100000;

class Traffic final : public Pipeline {
 public:
  void build(const std::vector<workload::Workload>& catalog,
             std::uint64_t seed) override {
    cluster_ = model::make_a9_k10_cluster(25, 7);
    classes_ = request_classes(catalog);
    const double cap = traffic::cluster_capacity_per_s(cluster_, classes_);
    // Quiet phases at 0.6x capacity for ~400 requests, bursts at 1.8x for
    // ~100: about 240 burst cycles per call, mean load 0.84x.
    arrivals_ = traffic::make_bursty(0.6 * cap, Seconds{400.0 / cap},
                                     1.8 * cap, Seconds{100.0 / cap});
    options_ = {};
    options_.requests = kRequests;
    options_.seed = seed;
    options_.admission.bucket_rate_per_s = 1.0 * cap;
    options_.admission.bucket_burst = 32.0;
    options_.admission.max_queue_depth = 48;
    options_.retry.max_attempts = 3;
    options_.retry.base_backoff = Seconds{20.0 / cap};
    first_json_.clear();
    completions_.clear();
  }

  void check_setup(std::vector<std::string>&) override {}

  std::uint64_t call() override {
    last_ = traffic::simulate_traffic(cluster_, classes_, *arrivals_,
                                      options_);
    last_json_ = last_.to_json().dump();
    return last_.offered;
  }

  void check_call(std::vector<std::string>& failures) override {
    const traffic::TrafficResult& r = last_;
    bool ok = r.offered == kRequests && r.offered == r.completed + r.failed;
    for (const traffic::ClassStats& c : r.classes)
      ok = ok && c.offered == c.completed + c.failed;
    if (!ok)
      failures.push_back("traffic: offered != completed + failed");
    if (first_json_.empty())
      first_json_ = last_json_;
    else if (last_json_ != first_json_)
      failures.push_back("traffic: TrafficResult JSON differs across calls");
  }

  void counts(const obs::MetricsSnapshot& snap, Metrics& out) const override {
    const traffic::TrafficResult& r = last_;
    const auto add = [&out](const char* name, std::uint64_t v) {
      out.push_back({name, static_cast<double>(v), "count"});
    };
    add("des.events", snap.counter("des.events"));
    add("traffic.offered", r.offered);
    add("traffic.admitted", r.admitted);
    add("traffic.shed", r.shed_bucket + r.shed_queue);
    add("traffic.retries", r.retries);
    add("traffic.completed", r.completed);
    add("traffic.failed", r.failed);
    add("dispatch.jobs", dispatched_jobs(r));
  }

  void decompose(SpanRecorder& rec, std::uint64_t call) override {
    if (completions_.empty()) record_run();
    {
      ScopedSpan span(rec, "traffic.arrivals", call);
      stream_ = generate();
    }
    {
      ScopedSpan span(rec, "traffic.engine", call);
      sink_ += traffic::simulate_traffic(cluster_, classes_, stream_,
                                         options_)
                   .completed;
    }
    {
      ScopedSpan span(rec, "traffic.json", call);
      sink_ += last_.to_json().dump().size();
    }
    // Probes of layers nested inside the engine, on the run's own data.
    {
      traffic::TokenBucket bucket(options_.admission.bucket_rate_per_s,
                                  options_.admission.bucket_burst);
      ScopedSpan span(rec, "traffic.admission", call);
      for (const traffic::Arrival& a : stream_)
        sink_ += bucket.try_acquire(a.t) ? 1 : 0;
    }
    {
      // The run's event pattern through the calendar queue: popping an
      // arrival schedules its completion and the next arrival, so the
      // pending set holds the in-flight completions as in the engine.
      des::CalendarScheduler scheduler;
      ScopedSpan span(rec, "des.scheduler", call);
      const std::uint64_t n = completions_.size();
      std::uint64_t ops = 0;
      if (n > 0) scheduler.push(completions_[0].first, 0, des::Callback{});
      while (!scheduler.empty()) {
        const des::Event e = scheduler.pop();
        ++ops;
        if (e.seq % 2 == 1) continue;  // completion
        const std::uint64_t i = e.seq / 2;
        scheduler.push(completions_[i].second, e.seq + 1, des::Callback{});
        if (i + 1 < n)
          scheduler.push(completions_[i + 1].first, e.seq + 2,
                         des::Callback{});
        ops += i + 1 < n ? 2 : 1;
      }
      scheduler_ops_ = ops;
    }
    {
      std::vector<double> samples = sojourns_;
      ScopedSpan span(rec, "traffic.summary", call);
      sink_ += traffic::LatencySummary::from_samples(samples).p99.value();
    }
  }

  void layers(const std::vector<Round>& rounds, double call_ms, Metrics& out,
              Attribution& attribution) const override {
    const double n = static_cast<double>(stream_.size());
    const double arrivals = median_of(rounds, "traffic.arrivals");
    const double engine = median_of(rounds, "traffic.engine");
    const double json = median_of(rounds, "traffic.json");
    const double admission = median_of(rounds, "traffic.admission");
    const double scheduler = median_of(rounds, "des.scheduler");
    const double summary = median_of(rounds, "traffic.summary");
    const double admission_ns = admission * 1e6 / n;
    const double scheduler_ns =
        scheduler * 1e6 / static_cast<double>(scheduler_ops_);
    out.push_back({"traffic.arrivals.ns_per_req", arrivals * 1e6 / n, "ns"});
    out.push_back({"traffic.admission.ns_per_op", admission_ns, "ns"});
    out.push_back({"traffic.engine.ns_per_req", engine * 1e6 / n, "ns"});
    out.push_back({"des.ns_per_event",
                   engine * 1e6 / static_cast<double>(events_), "ns"});
    out.push_back({"des.scheduler.ns_per_op", scheduler_ns, "ns"});
    out.push_back({"traffic.summary_ms", summary, "ms"});
    out.push_back({"traffic.json_ms", json, "ms"});
    // Nested layers are charged by their operation counts in the call:
    // one bucket probe per attempt, a push and a pop per DES event, and
    // the sojourn summaries (overall, and per class over the same
    // samples); the wait and service summaries stay in the engine's self
    // time.
    const double admission_ms =
        admission_ns * static_cast<double>(attempts_) * 1e-6;
    const double scheduler_ms =
        scheduler_ns * 2.0 * static_cast<double>(events_) * 1e-6;
    const double summary_ms = 2.0 * summary;
    attribution = {
        {"traffic.arrivals", arrivals},
        {"traffic.admission", admission_ms},
        {"des.scheduler", scheduler_ms},
        {"traffic.summary", summary_ms},
        {"traffic.engine(self)",
         engine - admission_ms - scheduler_ms - summary_ms},
        {"traffic.json", json}};
    out.push_back({"traffic.unattributed_share",
                   (call_ms - arrivals - engine - json) / call_ms, "share"});
  }

 private:
  /// One recorded replay of the call's stream: the arrival and
  /// completion instants, sojourns and event counts the probes replay.
  void record_run() {
    stream_ = generate();
    traffic::TrafficOptions recorded = options_;
    recorded.record_requests = true;
    obs::Observer observer;
    obs::ScopedObserver install(observer);
    const traffic::TrafficResult r =
        traffic::simulate_traffic(cluster_, classes_, stream_, recorded);
    events_ = observer.metrics.snapshot().counter("des.events");
    attempts_ = r.admitted + r.shed_bucket + r.shed_queue;
    sojourns_.clear();
    completions_.clear();
    for (const traffic::RequestRecord& q : r.requests) {
      if (q.failed != 0) continue;
      sojourns_.push_back(q.sojourn.value());
      const Seconds arrival = stream_[q.index].t;
      completions_.push_back({arrival, arrival + q.sojourn});
    }
  }

  /// The call's arrival stream, drawn arrival instant first and class
  /// coin second from a generator clone and the run's seed.
  std::vector<traffic::Arrival> generate() const {
    std::vector<traffic::Arrival> out;
    out.reserve(kRequests);
    auto gen = arrivals_->clone();
    Rng rng(options_.seed);
    Seconds t{0.0};
    for (std::uint64_t k = 0; k < kRequests; ++k) {
      t = gen->next(t, rng);
      const double coin =
          rng.uniform01() * (classes_[0].weight + classes_[1].weight);
      out.push_back({t, coin < classes_[0].weight ? 0u : 1u});
    }
    return out;
  }

  model::ClusterSpec cluster_;
  std::vector<traffic::TrafficClass> classes_;
  std::unique_ptr<traffic::ArrivalProcess> arrivals_;
  traffic::TrafficOptions options_;
  traffic::TrafficResult last_;
  std::string last_json_;
  std::string first_json_;
  std::vector<traffic::Arrival> stream_;
  std::vector<double> sojourns_;
  std::vector<std::pair<Seconds, Seconds>> completions_;  ///< in, out
  std::uint64_t events_ = 1;
  std::uint64_t attempts_ = 0;
  std::uint64_t scheduler_ops_ = 1;
  double sink_ = 0.0;
};

}  // namespace

std::unique_ptr<Pipeline> make_traffic() {
  return std::make_unique<Traffic>();
}

}  // namespace perfbench
