// `sweep`: the paper's footnote-4 energy-deadline sweep (Sec. III-D,
// Figs 9-10) over the A9/K10 space of 10+10 nodes, 36,380
// configurations, for all six paper workloads per call. Each call runs
// evaluate_space on an explicit one-thread pool, then pareto_front,
// min_edp, fastest and min_energy_within_deadline. Its columns fit one
// core's L2 and it touches no traffic or DES code.
#include <algorithm>
#include <cmath>
#include <optional>

#include "hcep/config/operating_points.hpp"
#include "hcep/config/pareto.hpp"
#include "hcep/config/space.hpp"
#include "hcep/parallel/thread_pool.hpp"
#include "hcep/util/rng.hpp"
#include "pipeline.hpp"

namespace perfbench {
namespace {

using namespace hcep;

constexpr std::uint64_t kSpaceSize = 36380;  // footnote 4 of the paper

/// What one workload's sweep selected; compared exactly across calls.
struct Selection {
  std::vector<std::uint64_t> front;
  std::vector<double> front_time;
  std::vector<double> front_energy;
  std::uint64_t min_edp = 0;
  std::uint64_t fastest = 0;
  std::uint64_t within_deadline = 0;

  bool operator==(const Selection&) const = default;
};

class Sweep final : public Pipeline {
 public:
  void build(const std::vector<workload::Workload>& catalog,
             std::uint64_t seed) override {
    space_.emplace(config::make_a9_k10_space(10, 10));
    // The seed rotates the workload order and picks each deadline as a
    // multiple (1.2x-3.2x) of the workload's fastest configuration.
    Rng rng(seed);
    const std::size_t rot = static_cast<std::size_t>(seed % catalog.size());
    workloads_.clear();
    slack_.clear();
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      workloads_.push_back(&catalog[(i + rot) % catalog.size()]);
      slack_.push_back(1.2 + 2.0 * rng.uniform01());
    }
    first_.clear();
  }

  void check_setup(std::vector<std::string>& failures) override {
    if (space_->size() != kSpaceSize) {
      failures.push_back("sweep: space has " +
                         std::to_string(space_->size()) + " configurations");
      return;
    }
    // Fast path vs the naive oracle, every configuration of one workload.
    const workload::Workload& w = *workloads_.front();
    const config::EvaluationSet fast = config::evaluate_space(*space_, w);
    const std::vector<config::Evaluation> naive =
        config::evaluate_space_naive(*space_, w);
    const auto rel = [](double a, double b) {
      return std::abs(a - b) / std::max(std::abs(b), 1e-300);
    };
    std::uint64_t bad = naive.size() == fast.size() ? 0 : 1;
    for (std::size_t k = 0; bad == 0 && k < naive.size(); ++k) {
      const config::Evaluation& e = naive[k];
      const auto i = static_cast<std::size_t>(e.index);
      if (rel(fast.time(i).value(), e.time.value()) > 1e-12 ||
          rel(fast.energy(i).value(), e.energy.value()) > 1e-12)
        ++bad;
    }
    if (bad != 0)
      failures.push_back("sweep: fast path differs from evaluate_space_naive "
                         "for " + w.name);
  }

  std::uint64_t call() override {
    last_.clear();
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
      const config::EvaluationSet evals =
          config::evaluate_space(*space_, *workloads_[i], &pool_);
      Selection s;
      for (const config::Evaluation& e : config::pareto_front(evals)) {
        s.front.push_back(e.index);
        s.front_time.push_back(e.time.value());
        s.front_energy.push_back(e.energy.value());
      }
      const auto edp = config::min_edp(evals);
      const auto fast = config::fastest(evals);
      s.min_edp = edp ? edp->index : kSpaceSize;
      s.fastest = fast ? fast->index : kSpaceSize;
      const auto within = config::min_energy_within_deadline(
          evals, Seconds{fast ? fast->time.value() * slack_[i] : 0.0});
      s.within_deadline = within ? within->index : kSpaceSize;
      last_.push_back(std::move(s));
    }
    return workloads_.size() * space_->size();
  }

  void check_call(std::vector<std::string>& failures) override {
    for (std::size_t w = 0; w < last_.size(); ++w) {
      const Selection& s = last_[w];
      const std::size_t n = s.front.size();
      bool dominated = n == 0;
      for (std::size_t a = 0; a < n && !dominated; ++a)
        for (std::size_t b = 0; b < n && !dominated; ++b)
          dominated = a != b && s.front_time[a] <= s.front_time[b] &&
                      s.front_energy[a] <= s.front_energy[b] &&
                      (s.front_time[a] < s.front_time[b] ||
                       s.front_energy[a] < s.front_energy[b]);
      if (dominated || s.fastest == kSpaceSize ||
          s.within_deadline == kSpaceSize)
        failures.push_back("sweep: bad front or selection for " +
                           workloads_[w]->name);
    }
    if (first_.empty())
      first_ = last_;
    else if (last_ != first_)
      failures.push_back("sweep: result differs from the first call");
  }

  void counts(const obs::MetricsSnapshot& snap, Metrics& out) const override {
    std::uint64_t front = 0;
    for (const Selection& s : last_) front += s.front.size();
    out.push_back({"config.configs",
                   static_cast<double>(snap.counter("sweep.configs")),
                   "count"});
    out.push_back({"config.front_size", static_cast<double>(front), "count"});
  }

  void decompose(SpanRecorder& rec, std::uint64_t call) override {
    const std::size_t n = static_cast<std::size_t>(space_->size());
    std::vector<config::DecodedGroup> groups(n * config::kMaxTypes);
    std::vector<std::size_t> sizes(n);
    std::vector<config::PointMetrics> metrics(n);
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
      std::optional<config::OperatingPointTable> table;
      {
        ScopedSpan span(rec, "config.table", call);
        table.emplace(*space_, *workloads_[i]);
      }
      {
        ScopedSpan span(rec, "config.decode", call);
        for (std::size_t k = 0; k < n; ++k)
          sizes[k] = space_->decode_at(k, &groups[k * config::kMaxTypes]);
      }
      {
        ScopedSpan span(rec, "config.fuse", call);
        for (std::size_t k = 0; k < n; ++k)
          metrics[k] =
              table->evaluate_job(&groups[k * config::kMaxTypes], sizes[k]);
      }
      config::EvaluationSet evals(&*space_, n);
      {
        ScopedSpan span(rec, "config.store", call);
        for (std::size_t k = 0; k < n; ++k)
          evals.set(k, metrics[k].time, metrics[k].energy,
                    metrics[k].idle_power, metrics[k].busy_power);
      }
      std::size_t front = 0;
      {
        ScopedSpan span(rec, "config.pareto", call);
        front = config::pareto_front(evals).size();
      }
      {
        ScopedSpan span(rec, "config.select", call);
        const auto edp = config::min_edp(evals);
        const auto fast = config::fastest(evals);
        const auto within = config::min_energy_within_deadline(
            evals, Seconds{fast->time.value() * slack_[i]});
        sink_ += static_cast<double>(edp->index + within->index + front);
      }
    }
    // Probes off the call's path: the fused sweep against the naive
    // oracle on the first workload.
    {
      ScopedSpan span(rec, "config.fast", call);
      sink_ += config::evaluate_space(*space_, *workloads_.front(), &pool_)
                   .time(0)
                   .value();
    }
    {
      ScopedSpan span(rec, "config.naive", call);
      sink_ += static_cast<double>(
          config::evaluate_space_naive(*space_, *workloads_.front()).size());
    }
  }

  void layers(const std::vector<Round>& rounds, double call_ms, Metrics& out,
              Attribution& attribution) const override {
    const double configs =
        static_cast<double>(space_->size() * workloads_.size());
    const double table = median_of(rounds, "config.table");
    const double decode = median_of(rounds, "config.decode");
    const double fuse = median_of(rounds, "config.fuse");
    const double store = median_of(rounds, "config.store");
    const double pareto = median_of(rounds, "config.pareto");
    const double select = median_of(rounds, "config.select");
    out.push_back({"config.decode_ns_per_config", decode * 1e6 / configs,
                   "ns"});
    out.push_back({"config.fuse_ns_per_config", fuse * 1e6 / configs, "ns"});
    out.push_back({"config.store_ns_per_config", store * 1e6 / configs,
                   "ns"});
    out.push_back({"config.table_us",
                   table * 1e3 / static_cast<double>(workloads_.size()),
                   "us"});
    out.push_back({"config.pareto_ms", pareto, "ms"});
    out.push_back({"config.select_ms", select, "ms"});
    out.push_back({"config.naive_speedup",
                   median_of(rounds, "config.naive") /
                       median_of(rounds, "config.fast"),
                   "x"});
    attribution = {{"config.table", table},   {"config.decode", decode},
                   {"config.fuse", fuse},     {"config.store", store},
                   {"config.pareto", pareto}, {"config.select", select}};
    double named = 0.0;
    for (const auto& [layer, ms] : attribution) named += ms;
    out.push_back({"sweep.unattributed_share", (call_ms - named) / call_ms,
                   "share"});
  }

 private:
  std::optional<config::ConfigSpace> space_;
  std::vector<const workload::Workload*> workloads_;
  std::vector<double> slack_;
  ThreadPool pool_{1};
  std::vector<Selection> last_;
  std::vector<Selection> first_;
  double sink_ = 0.0;
};

}  // namespace

std::unique_ptr<Pipeline> make_sweep() { return std::make_unique<Sweep>(); }

}  // namespace perfbench
