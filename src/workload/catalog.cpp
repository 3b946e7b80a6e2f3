#include "hcep/workload/catalog.hpp"

#include <cmath>

#include "hcep/hw/catalog.hpp"
#include "hcep/kernels/registry.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/calibrate.hpp"
#include "hcep/workload/characterize.hpp"

namespace hcep::workload {

using namespace hcep::literals;

std::vector<std::string> program_names() {
  return kernels::kernel_names();
}

double default_units_per_job(const std::string& program) {
  // Sized so one job's service time on the paper's validation cluster
  // lands where the paper's response-time figures live: EP jobs take
  // ~10-25 ms on the 32 A9 + 12 K10 mixes (Fig. 11's axis), x264 jobs
  // take ~0.5-1.5 s (Fig. 12's axis). Other programs follow their
  // domains: a 1 MB memcached batch, 100k-option pricing batches, ~1
  // minute of 16 kHz audio, a 2000-verification TLS burst.
  if (program == "EP") return 2.0e7;           // random numbers
  if (program == "memcached") return 1.0e6;    // bytes served
  if (program == "x264") return 500.0;         // frames
  if (program == "blackscholes") return 1.0e5; // options
  if (program == "Julius") return 3.0e5;       // samples
  if (program == "RSA-2048") return 2000.0;    // verifications
  throw PreconditionError("default_units_per_job: unknown program '" +
                          program + "'");
}

namespace {

Seconds default_io_interval(const std::string& program) {
  // Only memcached is request-paced over the NIC; the floor is far below
  // the transfer time so it seldom binds (Table 2's max(T_IOT, 1/lambda)).
  if (program == "memcached") return 50.0_us;
  return Seconds{0.0};
}

}  // namespace

Workload with_input_scale(Workload w, double factor) {
  require(factor > 0.0, "with_input_scale: factor must be positive");
  w.units_per_job *= factor;
  return w;
}

Workload make_workload(const std::string& program,
                       const CatalogOptions& options) {
  std::vector<hw::NodeSpec> nodes = options.nodes;
  if (nodes.empty()) nodes = {hw::cortex_a9(), hw::opteron_k10()};

  const auto kernel = kernels::make_kernel(program);

  Workload w;
  w.name = program;
  w.work_unit = kernel->work_unit();
  w.units_per_job = default_units_per_job(program);
  w.io_request_interval = default_io_interval(program);

  const auto base_units = default_characterization_units(program);
  const auto units = static_cast<std::uint64_t>(std::llround(
      static_cast<double>(base_units) * std::max(options.units_factor, 0.01)));

  const kernels::OpCounts totals = run_characterization(
      *kernel, std::max<std::uint64_t>(units, 1), options.seed);
  for (const hw::NodeSpec& node : nodes) {
    w.demand[node.name] = demand_from_run(totals, node);
    if (options.calibrate) {
      if (const auto target = paper_target(program, node.name)) {
        calibrate_node(w, node, *target);
      }
    }
  }
  return w;
}

std::vector<Workload> paper_workloads(const CatalogOptions& options) {
  std::vector<Workload> out;
  out.reserve(program_names().size());
  for (const auto& program : program_names())
    out.push_back(make_workload(program, options));
  return out;
}

}  // namespace hcep::workload
