// hcep repo benchmark binary.
//
//   hcep_perfbench --workload sweep|traffic|fleet --seed N --seconds S
//                  --trace 0|1 [--smoke] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics with no observer installed;
// --trace 1 is the separate traced run that gives the per-layer metrics.
// --smoke makes a few calls and runs every check. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics (name -> {value, unit}).
//
// Every host time is host-normalized: the reference kernel (host.hpp)
// runs right before and after each timed region, and the region's raw
// time is scaled by host_scale() of the mean of those two runs.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hcep/obs/obs.hpp"
#include "hcep/workload/catalog.hpp"
#include "host.hpp"
#include "pipeline.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

/// A run whose reference-kernel IQR exceeds this share of its median is
/// a noisy host: its window is not scored but measured once more. It is
/// the largest end-to-end bound in BENCHMARK.json.
constexpr double kNoisyRefIqr = 0.25;
constexpr int kMaxWindows = 2;
constexpr std::size_t kMinCalls = 100;  // >= 10 samples beyond p90
constexpr std::size_t kSmokeCalls = 3;

/// Host-normalized wall time of one timed call, reference runs included,
/// on the calibration host. A run makes seconds / this many calls: the
/// run's length in work is fixed, so it is the same on every host and
/// every commit, and per-call costs that grow with the calls already
/// made in the process (README.md, "Findings") weigh the same in every
/// run.
double nominal_call_ms(const std::string& workload) {
  if (workload == "sweep") return 30.0;
  if (workload == "traffic") return 95.0;
  return 190.0;
}

std::size_t calls_for(const std::string& workload, double seconds) {
  return std::max(kMinCalls, static_cast<std::size_t>(
                                 seconds * 1e3 / nominal_call_ms(workload)));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hcep_perfbench: " << why
            << "\nusage: hcep_perfbench --workload sweep|traffic|fleet "
               "--seed N --seconds S --trace 0|1 [--smoke] [--spans FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload")
        a.workload = value;
      else if (key == "--seed")
        a.seed = std::stoull(value);
      else if (key == "--seconds")
        a.seconds = std::stod(value);
      else if (key == "--trace")
        a.trace = std::stoi(value);
      else if (key == "--spans")
        a.spans = value;
      else
        usage("unknown option " + key);
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload != "sweep" && a.workload != "traffic" &&
      a.workload != "fleet")
    usage("unknown workload '" + a.workload + "'");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Pipeline> make_pipeline(const std::string& name) {
  if (name == "sweep") return make_sweep();
  if (name == "traffic") return make_traffic();
  return make_fleet();
}

/// Every per-layer metric, in BENCHMARK.json order. Counts a workload
/// does not load read 0 on it.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"workload.catalog_ms", "ms"},
      {"config.decode_ns_per_config", "ns"},
      {"config.fuse_ns_per_config", "ns"},
      {"config.store_ns_per_config", "ns"},
      {"config.table_us", "us"},
      {"config.pareto_ms", "ms"},
      {"config.select_ms", "ms"},
      {"config.naive_speedup", "x"},
      {"traffic.arrivals.ns_per_req", "ns"},
      {"traffic.admission.ns_per_op", "ns"},
      {"traffic.engine.ns_per_req", "ns"},
      {"des.ns_per_event", "ns"},
      {"des.scheduler.ns_per_op", "ns"},
      {"traffic.summary_ms", "ms"},
      {"traffic.json_ms", "ms"},
      {"fed.generate_ms", "ms"},
      {"fed.route_ns_per_req", "ns"},
      {"fed.replay_ms", "ms"},
      {"fed.replay_max_ms", "ms"},
      {"fed.json_ms", "ms"},
      {"obs.sketch.insert_ns", "ns"},
      {"parallel.site_speedup", "x"},
      {"config.configs", "count"},
      {"config.front_size", "count"},
      {"des.events", "count"},
      {"traffic.offered", "count"},
      {"traffic.admitted", "count"},
      {"traffic.shed", "count"},
      {"traffic.retries", "count"},
      {"traffic.completed", "count"},
      {"traffic.failed", "count"},
      {"dispatch.jobs", "count"},
      {"control.ticks", "count"},
      {"control.sleeps", "count"},
      {"control.wakes", "count"},
      {"control.point_changes", "count"},
      {"fed.cross_site", "count"},
      {"obs.stream.windows", "count"},
      {"sweep.unattributed_share", "share"},
      {"traffic.unattributed_share", "share"},
      {"fleet.unattributed_share", "share"},
      {"trace.overhead_share", "share"},
      {"host.ref_ms", "ms"},
      {"host.ref_iqr_ratio", "share"},
      {"host.raw_items_per_s", "1/s"},
      {"host.raw_call_ms_p50", "ms"},
  };
  return kAll;
}

/// One host-normalized timing: raw ms, the adjacent reference ms, and
/// raw scaled by host_scale(reference).
struct Timing {
  double raw_ms = 0.0;
  double ref_ms = 0.0;
  [[nodiscard]] double norm_ms() const {
    return raw_ms * host_scale(ref_ms);
  }
};

/// Runs `fn` between two reference-kernel runs; `ref_before` is reused
/// from the previous timing when given, so back-to-back timings share
/// their reference runs.
Timing timed(RefKernel& ref, const std::function<void()>& fn,
             double* ref_before = nullptr) {
  const double before =
      ref_before != nullptr && *ref_before > 0.0 ? *ref_before : ref.run_ms();
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  const double after = ref.run_ms();
  if (ref_before != nullptr) *ref_before = after;
  return {static_cast<double>(t1 - t0) * 1e-6, 0.5 * (before + after)};
}

/// Operation ledger: every call and every set-up check is one attempt;
/// one that throws or fails a check is one failure.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void run(const std::function<void(std::vector<std::string>&)>& op) {
    ++attempted;
    const std::size_t before = messages.size();
    try {
      op(messages);
    } catch (const std::exception& e) {
      messages.push_back(std::string("exception: ") + e.what());
    }
    if (messages.size() != before) ++failed;
  }
};

struct Window {
  std::vector<Timing> calls;
  std::vector<double> refs;  ///< every reference run in the window
  std::uint64_t items = 0;

  [[nodiscard]] double ref_iqr_ratio() const {
    return (quantile(refs, 0.75) - quantile(refs, 0.25)) /
           quantile(refs, 0.5);
  }
};

/// Times `calls` calls back to back, each between two reference runs.
Window measure(Pipeline& p, RefKernel& ref, Ledger& ledger,
               std::size_t calls) {
  Window w;
  double shared = ref.run_ms();
  w.refs.push_back(shared);
  for (std::size_t i = 0; i < calls; ++i) {
    std::uint64_t items = 0;
    Timing t;
    ledger.run([&](std::vector<std::string>& failures) {
      t = timed(ref, [&] { items = p.call(); }, &shared);
      p.check_call(failures);
    });
    w.refs.push_back(shared);
    if (t.ref_ms > 0.0) {
      w.calls.push_back(t);
      w.items += items;
    }
  }
  return w;
}

std::string fmt(double v, int digits = 4) {
  std::ostringstream out;
  out << std::setprecision(digits) << v;
  return out.str();
}

void print_result(Ledger& ledger, Metrics metrics) {
  for (Metric& m : metrics) {
    if (std::isfinite(m.value)) continue;
    ledger.messages.push_back("metric " + m.name + " is not finite");
    ++ledger.failed;
    m.value = 0.0;
  }
  for (const std::string& m : ledger.messages)
    std::cout << "FAILED: " << m << "\n";
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted
      << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Builds the catalog and the workload's inputs `reps` times; returns
/// the host-normalized set-up times and keeps the last build.
std::vector<Timing> set_up(RefKernel& ref, int reps,
                           std::vector<hcep::workload::Workload>& catalog,
                           std::vector<std::unique_ptr<Pipeline>>& pipes,
                           std::uint64_t seed,
                           std::vector<Timing>* catalog_times) {
  std::vector<Timing> out;
  for (int r = 0; r < reps; ++r) {
    double shared = 0.0;
    Timing cat;
    const Timing all = timed(ref, [&] {
      cat = timed(ref, [&] { catalog = hcep::workload::paper_workloads(); },
                  &shared);
      for (auto& p : pipes) p->build(catalog, seed);
    });
    out.push_back(all);
    if (catalog_times != nullptr) catalog_times->push_back(cat);
  }
  return out;
}

double median_norm(const std::vector<Timing>& ts) {
  std::vector<double> v;
  for (const Timing& t : ts) v.push_back(t.norm_ms());
  return quantile(v, 0.5);
}

double median_raw(const std::vector<Timing>& ts) {
  std::vector<double> v;
  for (const Timing& t : ts) v.push_back(t.raw_ms);
  return quantile(v, 0.5);
}

int run_end_to_end(const Args& a) {
  RefKernel ref;
  for (int i = 0; i < 3; ++i) ref.run_ms();
  std::vector<hcep::workload::Workload> catalog;
  std::vector<std::unique_ptr<Pipeline>> pipes;
  pipes.push_back(make_pipeline(a.workload));
  Pipeline& p = *pipes.front();

  const std::vector<Timing> setup =
      set_up(ref, a.smoke ? 1 : 9, catalog, pipes, a.seed, nullptr);
  Ledger ledger;
  ledger.run([&](std::vector<std::string>& f) { p.check_setup(f); });
  // Warm-up: let caches fill and lazy set-up finish before timing.
  for (int i = 0; i < 2; ++i)
    ledger.run([&](std::vector<std::string>& f) {
      p.call();
      p.check_call(f);
    });

  const std::size_t calls =
      a.smoke ? kSmokeCalls : calls_for(a.workload, a.seconds);
  Window w = measure(p, ref, ledger, calls);
  for (int tries = 1; tries < kMaxWindows && !a.smoke &&
                      w.ref_iqr_ratio() > kNoisyRefIqr;
       ++tries) {
    std::cout << "noisy host: reference IQR " << fmt(w.ref_iqr_ratio())
              << " of median exceeds " << kNoisyRefIqr
              << "; window not scored, measuring again\n";
    Window again = measure(p, ref, ledger, calls);
    if (again.ref_iqr_ratio() < w.ref_iqr_ratio()) w = std::move(again);
  }
  const bool noisy = w.ref_iqr_ratio() > kNoisyRefIqr;

  std::vector<double> norm, raw;
  double norm_total_s = 0.0, raw_total_s = 0.0;
  for (const Timing& t : w.calls) {
    norm.push_back(t.norm_ms());
    raw.push_back(t.raw_ms);
    norm_total_s += t.norm_ms() * 1e-3;
    raw_total_s += t.raw_ms * 1e-3;
  }
  const double items = static_cast<double>(w.items);
  std::vector<double> setup_norm, setup_raw;
  for (const Timing& t : setup) {
    setup_norm.push_back(t.norm_ms() * 1e-3);
    setup_raw.push_back(t.raw_ms * 1e-3);
  }
  const Metrics metrics = {
      {"items_per_s", items / norm_total_s, "1/s"},
      {"call_ms_p50", quantile(norm, 0.5), "ms"},
      {"call_ms_p90", quantile(norm, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", quantile(setup_norm, 0.5), "s"},
  };
  const std::vector<double> raw_values = {
      items / raw_total_s, quantile(raw, 0.5), quantile(raw, 0.9),
      peak_rss_mb(), quantile(setup_raw, 0.5)};

  std::cout << "host.ref_ms p25/p50/p75 " << fmt(quantile(w.refs, 0.25))
            << " / " << fmt(quantile(w.refs, 0.5)) << " / "
            << fmt(quantile(w.refs, 0.75)) << " (nominal " << kRefNominalMs
            << ", iqr/median " << fmt(w.ref_iqr_ratio(), 3)
            << (noisy ? ", NOISY HOST" : "") << ")\n";
  std::cout << "calls " << w.calls.size() << ", set-up reps "
            << setup.size() << "\n";
  std::cout << std::left << std::setw(14) << "metric" << std::setw(14)
            << "normalized" << std::setw(14) << "raw"
            << "unit\n";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << std::setw(14) << metrics[i].name << std::setw(14)
              << fmt(metrics[i].value, 6) << std::setw(14)
              << fmt(raw_values[i], 6) << metrics[i].unit << "\n";
  print_result(ledger, metrics);
  return 0;
}

/// One decomposition round: reference, the layer calls under a root
/// span, reference; the round's spans are host-normalized together.
Round decompose(Pipeline& p, RefKernel& ref, SpanRecorder& rec,
                std::uint64_t call, const std::string& root) {
  const std::size_t first = rec.size();
  const double before = ref.run_ms();
  {
    ScopedSpan span(rec, root, call);
    p.decompose(rec, call);
  }
  const double after = ref.run_ms();
  rec.scale_from(first, host_scale(0.5 * (before + after)));
  return rec.totals_from(first);
}

int run_traced(const Args& a) {
  RefKernel ref;
  for (int i = 0; i < 3; ++i) ref.run_ms();
  const std::vector<std::string> names = {"sweep", "traffic", "fleet"};
  std::vector<hcep::workload::Workload> catalog;
  std::vector<std::unique_ptr<Pipeline>> pipes;
  for (const std::string& n : names) pipes.push_back(make_pipeline(n));
  const std::size_t main_index = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), a.workload) - names.begin());

  std::vector<Timing> catalog_times;
  set_up(ref, a.smoke ? 1 : 3, catalog, pipes, a.seed, &catalog_times);
  Ledger ledger;
  for (auto& p : pipes)
    ledger.run([&](std::vector<std::string>& f) { p->check_setup(f); });

  SpanRecorder rec;
  std::uint64_t next_call = 1;
  Metrics metrics = {{"workload.catalog_ms", median_norm(catalog_times),
                      "ms"}};
  std::vector<Attribution> attributions(pipes.size());
  std::vector<double> call_ms(pipes.size());
  Window untraced;
  std::vector<Timing> traced;
  Metrics counts;
  // A main round is an untraced call, a traced call and a decomposition,
  // about three calls' worth; the other workloads get two rounds each.
  const std::size_t main_rounds =
      std::max<std::size_t>(5, calls_for(a.workload, a.seconds) / 3 / 3);
  for (std::size_t i = 0; i < pipes.size(); ++i) {
    Pipeline& p = *pipes[i];
    const bool own = i == main_index;
    const std::size_t n_rounds = a.smoke ? 1 : (own ? main_rounds : 2);
    std::vector<Round> rounds;
    std::vector<Timing> calls;
    for (std::size_t r = 0; r < n_rounds; ++r) {
      std::uint64_t items = 0;
      ledger.run([&](std::vector<std::string>& f) {
        const Timing t = timed(ref, [&] { items = p.call(); });
        p.check_call(f);
        calls.push_back(t);
        if (own) {
          untraced.calls.push_back(t);
          untraced.refs.push_back(t.ref_ms);
          untraced.items += items;
        }
      });
      if (own) {
        ledger.run([&](std::vector<std::string>& f) {
          hcep::obs::Observer observer;
          const std::size_t first = rec.size();
          Timing t;
          {
            hcep::obs::ScopedObserver install(observer);
            t = timed(ref, [&] {
              ScopedSpan span(rec, a.workload + ".call", next_call++);
              p.call();
            });
          }
          rec.scale_from(first, host_scale(t.ref_ms));
          traced.push_back(t);
          p.check_call(f);
          Metrics c;
          p.counts(observer.metrics.snapshot(), c);
          if (counts.empty()) {
            counts = c;
          } else {
            for (std::size_t k = 0; k < c.size(); ++k)
              if (c[k].value != counts[k].value)
                f.push_back("counts: " + c[k].name + " changed across calls");
          }
        });
      }
      ledger.run([&](std::vector<std::string>&) {
        rounds.push_back(decompose(p, ref, rec, next_call++,
                                   names[i] + ".decomposed"));
      });
    }
    call_ms[i] = median_norm(calls);
    p.layers(rounds, call_ms[i], metrics, attributions[i]);
  }

  for (const Metric& m : counts) metrics.push_back(m);
  const double untraced_ms = median_norm(untraced.calls);
  metrics.push_back({"trace.overhead_share",
                     median_norm(traced) / untraced_ms - 1.0, "share"});
  metrics.push_back({"host.ref_ms", quantile(untraced.refs, 0.5), "ms"});
  metrics.push_back({"host.ref_iqr_ratio", untraced.ref_iqr_ratio(),
                     "share"});
  double raw_s = 0.0;
  for (const Timing& t : untraced.calls) raw_s += t.raw_ms * 1e-3;
  metrics.push_back({"host.raw_items_per_s",
                     static_cast<double>(untraced.items) / raw_s, "1/s"});
  metrics.push_back({"host.raw_call_ms_p50", median_raw(untraced.calls),
                     "ms"});

  // Every per-layer metric in BENCHMARK.json order; counts of layers this
  // workload does not load are 0.
  Metrics ordered;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it != metrics.end())
      ordered.push_back(*it);
    else if (unit == "count")
      ordered.push_back({name, 0.0, unit});
    else
      ledger.messages.push_back("metric " + name + " was not measured");
  }
  ledger.failed += ordered.size() == layer_metrics().size() ? 0 : 1;

  std::cout << "attribution: self time per call, host-normalized ms\n";
  for (std::size_t i = 0; i < pipes.size(); ++i) {
    double named = 0.0;
    std::cout << "  " << names[i] << " (call " << fmt(call_ms[i]) << " ms)"
              << (i == main_index ? "  <- this workload" : "") << "\n";
    for (const auto& [layer, ms] : attributions[i]) {
      named += ms;
      std::cout << "    " << std::left << std::setw(26) << layer
                << std::right << std::setw(10) << fmt(ms) << std::setw(8)
                << fmt(100.0 * ms / call_ms[i], 3) << "%\n";
    }
    std::cout << "    " << std::left << std::setw(26) << "unattributed"
              << std::right << std::setw(10) << fmt(call_ms[i] - named)
              << std::setw(8)
              << fmt(100.0 * (call_ms[i] - named) / call_ms[i], 3) << "%\n";
  }
  std::cout << "tracing overhead: traced call " << fmt(median_norm(traced))
            << " ms vs untraced " << fmt(untraced_ms) << " ms\n";
  if (!a.spans.empty()) {
    std::ofstream out(a.spans);
    out << rec.jsonl();
    std::cout << "spans: " << rec.size() << " written to " << a.spans
              << "\n";
  }
  print_result(ledger, ordered);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  std::cout << "perfbench: workload " << args.workload << ", seed "
            << args.seed << ", seconds " << args.seconds << ", trace "
            << args.trace << (args.smoke ? ", smoke" : "") << ", load1 "
            << perfbench::load_average_1m() << "\n";
  return args.trace == 0 ? perfbench::run_end_to_end(args)
                         : perfbench::run_traced(args);
}
