#include "hcep/workload/characterize.hpp"

#include "hcep/util/error.hpp"

namespace hcep::workload {

NodeDemand demand_from_counts(const kernels::OpCounts& per_unit,
                              const hw::NodeSpec& node) {
  const hw::CostModel& cm = node.cost;
  NodeDemand d;
  d.cycles_core = static_cast<double>(per_unit.int_ops) * cm.cpi_int +
                  static_cast<double>(per_unit.fp_ops) * cm.cpi_fp +
                  static_cast<double>(per_unit.branch_ops) * cm.cpi_branch +
                  static_cast<double>(per_unit.crypto_ops) * cm.cpi_crypto /
                      cm.crypto_speedup;
  // Memory-stall cycles at f_max: stream time over the node's sustainable
  // bandwidth, expressed in core cycles (Table 2 keeps stalls in cycles).
  const Seconds mem_time = per_unit.mem_traffic / cm.mem_bandwidth;
  d.cycles_mem = (node.dvfs.max() * mem_time).value();
  d.io_bytes = per_unit.io_bytes;
  return d;
}

kernels::OpCounts run_characterization(kernels::Kernel& kernel,
                                       std::uint64_t units,
                                       std::uint64_t seed) {
  require(units > 0, "characterize: need at least one work unit");
  Rng rng(seed);
  return kernel.run(units, rng).counts;
}

NodeDemand demand_from_run(const kernels::OpCounts& totals,
                           const hw::NodeSpec& node) {
  require(totals.work_units > 0, "characterize: kernel reported no work");
  // Use exact per-unit averages (double precision) rather than the
  // truncated integer per_unit() to avoid quantization on small runs.
  kernels::OpCounts sums = totals;
  sums.work_units = 1;
  return demand_from_counts(sums, node)
      .scaled(1.0 / static_cast<double>(totals.work_units));
}

NodeDemand characterize(kernels::Kernel& kernel, const hw::NodeSpec& node,
                        std::uint64_t units, std::uint64_t seed) {
  return demand_from_run(run_characterization(kernel, units, seed), node);
}

std::uint64_t default_characterization_units(const std::string& program) {
  if (program == "EP") return 400000;
  if (program == "memcached") return 200000;  // bytes served
  if (program == "x264") return 4;            // frames
  if (program == "blackscholes") return 40000;
  if (program == "Julius") return 3000;       // samples
  if (program == "RSA-2048") return 6;        // verifies
  throw PreconditionError("default_characterization_units: unknown program '" +
                          program + "'");
}

}  // namespace hcep::workload
