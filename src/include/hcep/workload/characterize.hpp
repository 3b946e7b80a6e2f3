// Workload characterization: the "Micro-benchmarks -> Workload
// Characterization" stage of the paper's Figure 1 methodology.
//
// Runs an instrumented kernel, collects its per-unit operation counts, and
// maps them through a node's micro-architectural cost model to the
// (cycles_core, cycles_mem, io_bytes) tuple the time-energy model consumes
// — standing in for the authors' perf-counter measurements on real nodes.
#pragma once

#include <cstdint>

#include "hcep/hw/node.hpp"
#include "hcep/kernels/kernel.hpp"
#include "hcep/workload/demand.hpp"

namespace hcep::workload {

/// Maps already-collected per-unit operation counts onto a node.
[[nodiscard]] NodeDemand demand_from_counts(const kernels::OpCounts& per_unit,
                                            const hw::NodeSpec& node);

/// Runs `kernel` once for `units` units of work and returns its total
/// counts. Counts do not depend on the node, so one run characterizes a
/// program on every node type through demand_from_run.
[[nodiscard]] kernels::OpCounts run_characterization(kernels::Kernel& kernel,
                                                     std::uint64_t units,
                                                     std::uint64_t seed = 42);

/// Per-unit demand on `node` from the totals of one characterization run.
[[nodiscard]] NodeDemand demand_from_run(const kernels::OpCounts& totals,
                                         const hw::NodeSpec& node);

/// Runs `kernel` for `units` units of work and characterizes it on `node`.
/// `seed` fixes the kernel's stochastic inputs.
[[nodiscard]] NodeDemand characterize(kernels::Kernel& kernel,
                                      const hw::NodeSpec& node,
                                      std::uint64_t units,
                                      std::uint64_t seed = 42);

/// Default characterization run lengths per program — large enough that
/// per-unit counts are stable, small enough to keep the pipeline quick.
[[nodiscard]] std::uint64_t default_characterization_units(
    const std::string& program);

}  // namespace hcep::workload
