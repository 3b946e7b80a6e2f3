#include "hcep/config/operating_points.hpp"

#include <algorithm>

#include "hcep/util/error.hpp"
#include "hcep/workload/node_ops.hpp"

namespace hcep::config {
namespace {

/// One present group with its per-configuration invariants looked up:
/// the entry, the node count as a double, the per-node idle floor and
/// the I/O floor io_request_interval / count.
struct FusedGroup {
  const OperatingPointEntry* entry;
  double count;
  double idle_power;  ///< W
  double io_floor;    ///< s
};

FusedGroup fused_group(const OperatingPointEntry& entry, Watts idle_power,
                       Seconds io_request_interval, std::uint64_t count) {
  const auto cnt = static_cast<double>(count);
  return {&entry, cnt, idle_power.value(), io_request_interval.value() / cnt};
}

/// The Table 2 row arithmetic of one configuration over its `n` present
/// groups in type order — the one copy both evaluate() and
/// evaluate_range() run. It works on raw doubles, a choice made while
/// std::max on Quantity still lowered to a compare-and-branch chain
/// rather than maxsd (util/units.hpp now gives Quantity direct
/// comparisons that lower to maxsd as well). Same floating-point
/// operations in the same order as TimeEnergyModel, so both paths agree
/// to machine precision; the time-pass intermediates carry over into the
/// energy pass instead of being recomputed.
inline PointMetrics fuse_row(const FusedGroup* g, std::size_t n,
                             double units) {
  double per_node_units[kMaxTypes];
  double t_io[kMaxTypes];

  // Rate-matched split: work shares are proportional to group throughput.
  double total_rate = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    total_rate += g[k].entry->throughput * g[k].count;
  // Division is the hot loop's costliest operation: one reciprocal of the
  // cluster rate replaces the per-group share divisions. The per-node
  // share units*(thr*cnt)/total/cnt reduces to units*thr/total — within
  // an ulp of the naive grouping, far inside the 1e-9 oracle tolerance.
  const double inv_total_rate = 1.0 / total_rate;

  // Pass 1: per-group completion times -> T_P (Table 2 time rows).
  double time = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const OperatingPointEntry& e = *g[k].entry;
    per_node_units[k] = units * e.throughput * inv_total_rate;
    const double t_cpu = e.t_cpu.value() * per_node_units[k];
    const double io_transfer = e.t_io.value() * per_node_units[k];
    t_io[k] = std::max(io_transfer, g[k].io_floor);
    time = std::max(time, std::max(t_cpu, t_io[k]));
  }

  // Pass 2: Table 2 energy rows plus the cluster power floors, summed in
  // the same order as TimeEnergyModel::job_energy.
  double energy = 0.0;
  double idle = 0.0;
  double busy = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const OperatingPointEntry& e = *g[k].entry;
    const double cnt = g[k].count;
    const double t_core = e.t_core.value() * per_node_units[k];
    const double t_mem = e.t_mem.value() * per_node_units[k];
    const double stall = std::max(0.0, t_mem - t_core);

    const double e_cpu_active = e.p_core_active.value() * t_core * cnt;
    const double e_cpu_stall = e.p_core_stall.value() * stall * cnt;
    const double e_mem = e.p_mem.value() * t_mem * cnt;
    const double e_net = e.p_net.value() * t_io[k] * cnt;
    const double e_idle = g[k].idle_power * time * cnt;
    energy += e_cpu_active + e_cpu_stall + e_mem + e_net + e_idle;

    idle += g[k].idle_power * cnt;
    busy += e.busy_power.value() * cnt;
  }
  return {Seconds{time}, Joules{energy}, Watts{idle}, Watts{busy}};
}

}  // namespace

OperatingPointTable::OperatingPointTable(const ConfigSpace& space,
                                         const workload::Workload& workload)
    : configs_(space.size()),
      units_per_job_(workload.units_per_job),
      io_request_interval_(workload.io_request_interval) {
  types_.reserve(space.types().size());
  for (std::size_t i = 0; i < space.types().size(); ++i) {
    const TypeOptions& t = space.types()[i];
    require(workload.has_node(t.spec.name),
            "OperatingPointTable: workload '" + workload.name +
                "' lacks demand for node type '" + t.spec.name + "'");
    const workload::NodeDemand& d = workload.demand_for(t.spec.name);
    const double kappa = workload.power_scale_for(t.spec.name);
    const Hertz f_max = t.spec.dvfs.max();

    TypeTable table;
    table.idle_power = t.spec.power.idle;
    table.radix = t.tuples() + 1;
    const std::size_t points = space.points_for(i);
    table.points.reserve(points);
    for (std::size_t p = 0; p < points; ++p) {
      const OperatingPoint op = space.point_at(i, p);
      const workload::UnitTime ut =
          workload::unit_time(d, t.spec, op.cores, op.frequency);

      OperatingPointEntry e;
      e.t_core = ut.core;
      e.t_mem = ut.mem;
      e.t_cpu = ut.cpu;
      e.t_io = ut.io;
      e.throughput =
          workload::unit_throughput(d, t.spec, op.cores, op.frequency);
      e.busy_power =
          workload::busy_power(d, t.spec, op.cores, op.frequency, kappa);
      // Fold (cores * dvfs * kappa) into the Table 2 rates exactly as the
      // TimeEnergyModel energy rows group them, so the fused path repeats
      // the naive path's floating-point operations verbatim.
      const double cores = static_cast<double>(op.cores);
      const double dvfs = t.spec.power.dvfs_scale(op.frequency, f_max);
      e.p_core_active = t.spec.power.core_active * (cores * dvfs * kappa);
      e.p_core_stall = t.spec.power.core_stalled * (cores * dvfs * kappa);
      e.p_mem = t.spec.power.mem_active * kappa;
      e.p_net = t.spec.power.net_active * kappa;
      table.points.push_back(e);
    }
    types_.push_back(std::move(table));
  }
}

PointMetrics OperatingPointTable::evaluate(const DecodedGroup* groups,
                                           std::size_t n,
                                           double units) const {
  FusedGroup g[kMaxTypes];  // kMaxTypes caps n
  for (std::size_t k = 0; k < n; ++k)
    g[k] = fused_group(entry(groups[k].type, groups[k].point),
                       idle_power(groups[k].type), io_request_interval_,
                       groups[k].count);
  return fuse_row(g, n, units);
}

void OperatingPointTable::evaluate_range(std::uint64_t begin,
                                         std::uint64_t end,
                                         EvaluationSet& out) const {
  require(begin <= end && end <= configs_ && end <= out.size(),
          "OperatingPointTable::evaluate_range: range out of bounds");
  // Seed the mixed-radix odometer with one div/mod chain (code 0 is the
  // empty cluster, so index i has code i + 1). digit[0] is type 0's and
  // varies fastest; the other digits form the outer state.
  const std::size_t num_types = types_.size();
  std::uint64_t digit[kMaxTypes];
  std::uint64_t code = begin + 1;
  for (std::size_t i = 0; i < num_types; ++i) {
    digit[i] = code % types_[i].radix;
    code /= types_[i].radix;
  }

  const TypeTable& inner = types_[0];
  const std::uint64_t inner_points = inner.points.size();
  // g[0] is type 0's group when present; g[1..] the outer groups.
  FusedGroup g[kMaxTypes];
  auto store = [&out](std::uint64_t index, const PointMetrics& m) {
    out.set(index, m.time, m.energy, m.idle_power, m.busy_power);
  };
  std::uint64_t index = begin;
  while (index < end) {
    // Look up the outer state's groups once for its run of type-0 digits.
    std::size_t n_outer = 0;
    for (std::size_t i = 1; i < num_types; ++i) {
      if (digit[i] == 0) continue;  // type absent
      const TypeTable& t = types_[i];
      const std::uint64_t d = digit[i] - 1;
      g[++n_outer] = fused_group(t.points[d % t.points.size()], t.idle_power,
                                 io_request_interval_,
                                 d / t.points.size() + 1);
    }

    const std::uint64_t stop = std::min(inner.radix, digit[0] + (end - index));
    if (digit[0] == 0) {  // type 0 absent: the outer groups alone
      store(index++, fuse_row(g + 1, n_outer, units_per_job_));
      digit[0] = 1;
    }
    if (digit[0] < stop) {
      // Point is the fastest-varying part of a digit, node count the
      // slowest (see ConfigSpace::decode_at).
      std::uint64_t point = (digit[0] - 1) % inner_points;
      std::uint64_t count = (digit[0] - 1) / inner_points + 1;
      while (digit[0] < stop) {
        const std::uint64_t run =
            std::min(inner_points - point, stop - digit[0]);
        g[0] = fused_group(inner.points[point], inner.idle_power,
                           io_request_interval_, count);
        for (std::uint64_t p = point; p < point + run; ++p) {
          g[0].entry = &inner.points[p];
          store(index++, fuse_row(g, n_outer + 1, units_per_job_));
        }
        digit[0] += run;
        point = 0;
        ++count;
      }
    }

    if (digit[0] == inner.radix) {  // carry into the outer state
      digit[0] = 0;
      for (std::size_t i = 1; i < num_types; ++i) {
        if (++digit[i] < types_[i].radix) break;
        digit[i] = 0;
      }
    }
  }
}

}  // namespace hcep::config
